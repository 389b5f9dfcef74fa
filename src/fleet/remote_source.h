// Fleet stacking: one mixd instance serving another's virtual view.
//
// The paper's architecture composes: a mediated view is itself an XML
// source, so a mediator can sit on top of other mediators (Fig. 1's
// "mediators of mediators"). Two adapters make that real for the fleet:
//
// * ViewLxpWrapper — the EXPORT side: turns any Navigable (in particular a
//   client::FramedDocument session into another instance's virtual view)
//   into an LxpWrapper, which SessionEnvironment::ExportWrapper then serves
//   over kLxpGetRoot/kLxpFillMany frames. Hole ids are "v:<n>"
//   handles into an internal table mapping n -> the NodeId whose remaining
//   sibling list the hole stands for (NodeIds are structured terms with no
//   textual parser, so the table — not the id string — carries the
//   position; the table only grows, keeping every handed-out id valid).
//   Fills are deterministic per hole id, so the downstream instance may
//   cache them.
//
// * RemoteSourceFactory — the IMPORT side: mints, per session, a
//   service::wire::FramedLxpWrapper that owns its TcpFrameTransport (its
//   own connection, matching the one-stream-per-client transport
//   contract). The stub's BeginFillMany is natively async, so readahead
//   flights on an imported source really are in flight. That is exactly the
//   shape RegisterWrapperFactory wants — registering instance A's exported
//   view as a demand-paged source of instance B is one call:
//
//     env.RegisterWrapperFactory("upstream",
//         fleet::RemoteSourceFactory("127.0.0.1", port_a, "view-uri"),
//         "view-uri");
#ifndef MIX_FLEET_REMOTE_SOURCE_H_
#define MIX_FLEET_REMOTE_SOURCE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "buffer/lxp.h"
#include "core/navigable.h"

namespace mix::fleet {

class ViewLxpWrapper : public buffer::LxpWrapper {
 public:
  struct Options {
    /// Sibling elements served per fill. Every element ships as its label
    /// plus (if it has children) one child hole — the restrictive
    /// left-to-right policy, which keeps re-fills of one hole id
    /// byte-deterministic regardless of exploration order.
    int chunk = 8;
  };

  /// `view` is not owned and must outlive the wrapper. The wrapper issues
  /// plain d/r/f navigation against it, so `view` may be a local virtual
  /// answer document or a FramedDocument into a remote one.
  ViewLxpWrapper(Navigable* view, Options options);
  explicit ViewLxpWrapper(Navigable* view) : ViewLxpWrapper(view, Options()) {}

  std::string GetRoot(const std::string& uri) override;
  buffer::FragmentList Fill(const std::string& hole_id) override;
  buffer::HoleFillList FillMany(const std::vector<std::string>& holes,
                                const buffer::FillBudget& budget) override;

  int64_t fills_served() const { return fills_served_; }

 protected:
  void SetFillSizeHint(int64_t elements) override {
    fill_size_hint_ = elements;
  }

 private:
  int64_t EffectiveChunk() const;
  /// Registers `node` in the table and returns its "v:<n>" hole id.
  std::string HoleFor(const NodeId& node);

  Navigable* view_;
  Options options_;
  /// Index n of hole "v:<n>" -> first node of the sibling list it refines.
  std::vector<NodeId> pending_;
  int64_t fills_served_ = 0;
  int64_t fill_size_hint_ = 0;
};

/// Session-wrapper factory dialing `host:port` and serving `uri` — the value
/// to hand SessionEnvironment::RegisterWrapperFactory when the source is
/// another mixd across the network. Each call returns a framed stub owning
/// a fresh TCP connection (connections are single-stream).
std::function<std::unique_ptr<buffer::LxpWrapper>()> RemoteSourceFactory(
    std::string host, uint16_t port, std::string uri);

}  // namespace mix::fleet

#endif  // MIX_FLEET_REMOTE_SOURCE_H_
