// Umbrella header for the MIX library.
//
// Downstream users who do not need fine-grained includes can pull in the
// whole public surface:
//
//   #include "mix.h"
//
// Layering (see README.md / DESIGN.md):
//   core      — node-ids, the DOM-VXD Navigable interface, Status
//   xml       — labeled ordered trees, parsing, materialization
//   pathexpr  — generalized regular path expressions
//   rdb/net   — relational and network substrates
//   buffer    — LXP protocol + the generic buffer component
//   wrappers  — relational / XML / Web / CSV sources
//   algebra   — XMAS operators as lazy mediators (+ reference evaluator)
//   xmas      — the XMAS query language
//   mediator  — plans, translation, rewriting, browsability, instantiation
//   client    — the thin DOM-style client library
#ifndef MIX_MIX_H_
#define MIX_MIX_H_

#include "core/check.h"
#include "core/navigable.h"
#include "core/node_id.h"
#include "core/status.h"
#include "core/super_root.h"

#include "xml/doc_navigable.h"
#include "xml/materialize.h"
#include "xml/parser.h"
#include "xml/random_tree.h"
#include "xml/tree.h"

#include "pathexpr/path_expr.h"

#include "rdb/database.h"
#include "rdb/sql.h"

#include "net/sim_net.h"

#include "buffer/buffer.h"
#include "buffer/lxp.h"

#include "wrappers/bookstore.h"
#include "wrappers/csv_wrapper.h"
#include "wrappers/relational_wrapper.h"
#include "wrappers/xml_lxp_wrapper.h"

#include "algebra/binding_stream.h"
#include "algebra/bindings_navigable.h"
#include "algebra/concatenate_op.h"
#include "algebra/create_element_op.h"
#include "algebra/extra_ops.h"
#include "algebra/get_descendants_op.h"
#include "algebra/group_by_op.h"
#include "algebra/join_op.h"
#include "algebra/materialize_op.h"
#include "algebra/order_by_op.h"
#include "algebra/reference.h"
#include "algebra/select_op.h"
#include "algebra/set_ops.h"
#include "algebra/source_op.h"
#include "algebra/tuple_destroy_op.h"

#include "xmas/ast.h"
#include "xmas/parser.h"

#include "mediator/browsability.h"
#include "mediator/instantiate.h"
#include "mediator/passes/pass.h"
#include "mediator/plan.h"
#include "mediator/plan_text.h"
#include "mediator/reference_eval.h"
#include "mediator/translate.h"
#include "mediator/view_schema.h"

#include "client/client.h"

#endif  // MIX_MIX_H_
