// mixql — run an XMAS query against XML file sources from the shell.
//
//   mixql [options] <query.xmas> name=source.xml [name=source.xml ...]
//
//   --plan      print the algebra plan (after optimization) and exit
//   --analyze   print the browsability report and exit
//   --algebra   the query file contains plan text (PlanNode::ToString
//               format, see mediator/plan_text.h) instead of XMAS
//   --view name=view.xmas
//               define a virtual view: the query may use `name` as a
//               source. Statically composed into the query when possible
//               (mediator/compose.h), otherwise evaluated by runtime
//               mediator stacking
//   --schema    print the inferred answer schema and exit
//   --first N   materialize only the first N answer children
//
// The query file uses the Fig. 3 syntax; each `name=path` pair binds a
// WHERE-clause source name to a document on disk — XML, or (by the .csv
// extension) a CSV file exported as csv[row[col[v]...]*] through the CSV
// LXP wrapper behind a generic buffer. The answer is evaluated lazily and
// serialized to stdout.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "mediator/browsability.h"
#include "mediator/compose.h"
#include "mediator/plan_text.h"
#include "mediator/view_schema.h"
#include "mediator/instantiate.h"
#include "mediator/passes/pass.h"
#include "mediator/translate.h"
#include "xmas/parser.h"
#include "xml/doc_navigable.h"
#include "xml/materialize.h"
#include "xml/parser.h"
#include "buffer/buffer.h"
#include "wrappers/csv_wrapper.h"

namespace {

using namespace mix;

int Usage() {
  std::fprintf(stderr,
               "usage: mixql [--plan] [--analyze] [--schema] [--algebra] "
               "[--first N] [--view name=view.xmas] "
               "<query.xmas> name=source.{xml,csv} ...\n");
  return 2;
}

/// Grants σ to every source `plan` reads: each is a local document or a
/// buffered CSV table, and both answer σ.
void GrantSigma(const mediator::PlanNode& plan,
                mediator::passes::OptimizerOptions* options) {
  if (plan.kind == mediator::PlanNode::Kind::kSource) {
    options->sources[plan.source_name].sigma = true;
  }
  for (const mediator::PlanPtr& c : plan.children) GrantSigma(*c, options);
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  bool print_plan = false;
  bool analyze = false;
  bool algebra_input = false;
  bool print_schema = false;
  int64_t first_n = -1;
  std::string query_path;
  std::string view_name;
  std::string view_path;
  std::vector<std::pair<std::string, std::string>> bindings;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--plan") {
      print_plan = true;
    } else if (arg == "--analyze") {
      analyze = true;
    } else if (arg == "--algebra") {
      algebra_input = true;
    } else if (arg == "--schema") {
      print_schema = true;
    } else if (arg == "--first") {
      if (++i >= argc) return Usage();
      first_n = std::atoll(argv[i]);
    } else if (arg == "--view") {
      if (++i >= argc) return Usage();
      std::string spec = argv[i];
      size_t eq = spec.find('=');
      if (eq == std::string::npos) return Usage();
      view_name = spec.substr(0, eq);
      view_path = spec.substr(eq + 1);
    } else if (arg.find('=') != std::string::npos) {
      size_t eq = arg.find('=');
      bindings.emplace_back(arg.substr(0, eq), arg.substr(eq + 1));
    } else if (query_path.empty()) {
      query_path = arg;
    } else {
      return Usage();
    }
  }
  if (query_path.empty()) return Usage();

  auto query_text = ReadFile(query_path);
  if (!query_text.ok()) {
    std::fprintf(stderr, "%s\n", query_text.status().ToString().c_str());
    return 1;
  }
  Result<mediator::PlanPtr> plan = Status::Internal("unset");
  if (algebra_input) {
    plan = mediator::ParsePlanText(query_text.value());
  } else {
    auto query = xmas::ParseQuery(query_text.value());
    if (!query.ok()) {
      std::fprintf(stderr, "%s\n", query.status().ToString().c_str());
      return 1;
    }
    plan = mediator::TranslateQuery(query.value());
  }
  if (!plan.ok()) {
    std::fprintf(stderr, "%s\n", plan.status().ToString().c_str());
    return 1;
  }
  // Optional view: try static composition first.
  Result<mediator::PlanPtr> view_plan = Status::Internal("unset");
  bool view_composed = false;
  if (!view_name.empty()) {
    auto view_text = ReadFile(view_path);
    if (!view_text.ok()) {
      std::fprintf(stderr, "%s\n", view_text.status().ToString().c_str());
      return 1;
    }
    auto view_query = xmas::ParseQuery(view_text.value());
    if (!view_query.ok()) {
      std::fprintf(stderr, "%s\n", view_query.status().ToString().c_str());
      return 1;
    }
    view_plan = mediator::TranslateQuery(view_query.value());
    if (!view_plan.ok()) {
      std::fprintf(stderr, "%s\n", view_plan.status().ToString().c_str());
      return 1;
    }
    auto composed = mediator::ComposeQueryOverView(*plan.value(), view_name,
                                                   *view_plan.value());
    if (composed.ok()) {
      plan = std::move(composed);
      view_composed = true;
      std::fprintf(stderr, "[view '%s' statically composed]\n",
                   view_name.c_str());
    } else {
      std::fprintf(stderr, "[view '%s' stacked at runtime: %s]\n",
                   view_name.c_str(), composed.status().ToString().c_str());
    }
  }

  // An optimizer failure leaves the plan as it was, and that plan is correct.
  mediator::passes::OptimizerOptions optimizer;
  GrantSigma(*plan.value(), &optimizer);
  (void)mediator::passes::OptimizePlan(&plan.value(), optimizer);

  if (print_plan) {
    std::printf("%s", plan.value()->ToString().c_str());
    return 0;
  }
  if (print_schema) {
    auto schema = mediator::InferAnswerSchema(*plan.value());
    if (!schema.ok()) {
      std::fprintf(stderr, "%s\n", schema.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n", schema.value()->ToString().c_str());
    return 0;
  }
  if (analyze) {
    mediator::BrowsabilityOptions options;
    options.sigma_available = true;
    auto report = mediator::Classify(*plan.value(), options);
    std::printf("browsability: %s\n", BrowsabilityName(report.cls));
    for (const std::string& reason : report.reasons) {
      std::printf("  - %s\n", reason.c_str());
    }
    return 0;
  }

  // Load and register the sources (XML documents, or CSV by extension).
  std::vector<std::unique_ptr<xml::Document>> docs;
  std::vector<std::unique_ptr<Navigable>> navs;
  std::vector<std::unique_ptr<wrappers::CsvTable>> csv_tables;
  std::vector<std::unique_ptr<wrappers::CsvLxpWrapper>> csv_wrappers;
  mediator::SourceRegistry sources;
  for (const auto& [name, path] : bindings) {
    auto text = ReadFile(path);
    if (!text.ok()) {
      std::fprintf(stderr, "%s\n", text.status().ToString().c_str());
      return 1;
    }
    bool is_csv =
        path.size() > 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
    if (is_csv) {
      auto table = wrappers::ParseCsv(text.value());
      if (!table.ok()) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(),
                     table.status().ToString().c_str());
        return 1;
      }
      csv_tables.push_back(std::make_unique<wrappers::CsvTable>(
          std::move(table).ValueOrDie()));
      csv_wrappers.push_back(
          std::make_unique<wrappers::CsvLxpWrapper>(csv_tables.back().get()));
      navs.push_back(std::make_unique<buffer::BufferComponent>(
          csv_wrappers.back().get(), path));
    } else {
      auto doc = xml::Parse(text.value());
      if (!doc.ok()) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(),
                     doc.status().ToString().c_str());
        return 1;
      }
      docs.push_back(std::move(doc).ValueOrDie());
      navs.push_back(std::make_unique<xml::DocNavigable>(docs.back().get()));
    }
    sources.Register(name, navs.back().get());
  }

  // Runtime stacking fallback for a non-composable view.
  std::unique_ptr<mediator::LazyMediator> lower;
  if (!view_name.empty() && !view_composed) {
    auto built = mediator::LazyMediator::Build(*view_plan.value(), sources);
    if (!built.ok()) {
      std::fprintf(stderr, "%s\n", built.status().ToString().c_str());
      return 1;
    }
    lower = std::move(built).ValueOrDie();
    sources.Register(view_name, lower->document());
  }

  auto med = mediator::LazyMediator::Build(*plan.value(), sources);
  if (!med.ok()) {
    std::fprintf(stderr, "%s\n", med.status().ToString().c_str());
    return 1;
  }

  // Materialize the answer (optionally only a prefix) and print it.
  Navigable* answer = med.value()->document();
  xml::Document out;
  xml::Node* root = nullptr;
  if (first_n >= 0) {
    // Prefix: the root element plus the first N children (fully explored).
    root = out.NewElement(answer->Fetch(answer->Root()));
    auto child = answer->Down(answer->Root());
    for (int64_t i = 0; i < first_n && child.has_value(); ++i) {
      // Materialize this child completely via a scoped walk.
      struct Sub : Navigable {
        Navigable* inner;
        NodeId top;
        NodeId Root() override { return top; }
        std::optional<NodeId> Down(const NodeId& p) override {
          return inner->Down(p);
        }
        std::optional<NodeId> Right(const NodeId& p) override {
          if (p == top) return std::nullopt;
          return inner->Right(p);
        }
        Label Fetch(const NodeId& p) override { return inner->Fetch(p); }
      } sub;
      sub.inner = answer;
      sub.top = *child;
      out.AppendChild(root, xml::MaterializeInto(&sub, &out));
      child = answer->Right(*child);
    }
  } else {
    root = xml::MaterializeInto(answer, &out);
  }
  std::printf("%s", xml::ToXml(root, /*pretty=*/true).c_str());
  return 0;
}
