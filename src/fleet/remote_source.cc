#include "fleet/remote_source.h"

#include <algorithm>
#include <utility>

#include "core/status.h"
#include "net/tcp/tcp_transport.h"
#include "service/wire.h"

namespace mix::fleet {

// ---------------------------------------------------------------------------
// ViewLxpWrapper

ViewLxpWrapper::ViewLxpWrapper(Navigable* view, Options options)
    : view_(view), options_(options) {
  if (options_.chunk < 1) options_.chunk = 1;
}

int64_t ViewLxpWrapper::EffectiveChunk() const {
  return fill_size_hint_ > 0
             ? std::max<int64_t>(options_.chunk, fill_size_hint_)
             : options_.chunk;
}

std::string ViewLxpWrapper::HoleFor(const NodeId& node) {
  pending_.push_back(node);
  return "v:" + std::to_string(pending_.size() - 1);
}

std::string ViewLxpWrapper::GetRoot(const std::string& uri) {
  (void)uri;  // one view per wrapper; the registration names it
  // Root must not touch the sources (Navigable::Root is preprocessing-only),
  // so the root hole is just a handle — the first fill does the work.
  return HoleFor(view_->Root());
}

buffer::FragmentList ViewLxpWrapper::Fill(const std::string& hole_id) {
  buffer::FragmentList out;
  if (hole_id.size() < 3 || hole_id.compare(0, 2, "v:") != 0) return out;
  size_t index = 0;
  for (size_t i = 2; i < hole_id.size(); ++i) {
    char c = hole_id[i];
    if (c < '0' || c > '9') return out;
    index = index * 10 + static_cast<size_t>(c - '0');
  }
  if (index >= pending_.size()) return out;
  ++fills_served_;
  // Re-resolve from the stored NodeId every time: ids are self-describing,
  // so a repeated fill of the same hole replays identically (cacheable).
  std::optional<NodeId> cur = pending_[index];
  int64_t chunk = EffectiveChunk();
  for (int64_t served = 0; cur && served < chunk; ++served) {
    buffer::Fragment elem = buffer::Fragment::Element(view_->Fetch(*cur));
    std::optional<NodeId> child = view_->Down(*cur);
    if (child) elem.children.push_back(buffer::Fragment::Hole(HoleFor(*child)));
    out.push_back(std::move(elem));
    cur = view_->Right(*cur);
  }
  if (cur) out.push_back(buffer::Fragment::Hole(HoleFor(*cur)));
  return out;
}

buffer::HoleFillList ViewLxpWrapper::FillMany(
    const std::vector<std::string>& holes, const buffer::FillBudget& budget) {
  return ChaseFills(holes, budget);
}

std::function<std::unique_ptr<buffer::LxpWrapper>()> RemoteSourceFactory(
    std::string host, uint16_t port, std::string uri) {
  return [host = std::move(host), port, uri = std::move(uri)]() {
    net::tcp::TcpTransportOptions options;
    options.host = host;
    options.port = port;
    return std::make_unique<service::wire::FramedLxpWrapper>(
        std::make_unique<net::tcp::TcpFrameTransport>(options), uri);
  };
}

}  // namespace mix::fleet
