#include "client/framed_document.h"

#include <algorithm>

namespace mix::client {

namespace {
using service::wire::Frame;
using service::wire::MsgType;
}  // namespace

Result<std::unique_ptr<FramedDocument>> FramedDocument::Open(
    service::wire::FrameTransport* transport, const std::string& xmas_text,
    int64_t deadline_ns) {
  Frame req;
  req.type = MsgType::kOpen;
  req.text = xmas_text;
  req.deadline_ns = deadline_ns;
  Result<Frame> resp = service::wire::Call(transport, req);
  if (!resp.ok()) return resp.status();
  if (resp.value().type != MsgType::kOpenOk || resp.value().session == 0) {
    return Status::Internal("malformed open response");
  }
  return std::unique_ptr<FramedDocument>(
      new FramedDocument(transport, resp.value().session, deadline_ns));
}

Result<std::unique_ptr<FramedDocument>> FramedDocument::Open(
    service::wire::FrameTransport* transport, const std::string& xmas_text,
    int64_t deadline_ns, const net::RetryOptions& retry, uint64_t seed) {
  net::RetryPolicy policy(retry, seed);
  Result<std::unique_ptr<FramedDocument>> result =
      Status::Internal("open never attempted");
  net::RetryPolicy::Outcome outcome = policy.Run(
      [&]() {
        result = Open(transport, xmas_text, deadline_ns);
        return result.ok() ? Status::OK() : result.status();
      },
      /*clock=*/nullptr, /*deadline_ns=*/-1);
  if (!outcome.status.ok()) return outcome.status;
  result.value()->set_retry(retry, seed);
  result.value()->retries_ += outcome.retries;
  return result;
}

Result<std::unique_ptr<FramedDocument>> FramedDocument::Open(
    std::unique_ptr<service::wire::FrameTransport> transport,
    const std::string& xmas_text, int64_t deadline_ns) {
  Result<std::unique_ptr<FramedDocument>> doc =
      Open(transport.get(), xmas_text, deadline_ns);
  if (!doc.ok()) return doc.status();
  doc.value()->owned_transport_ = std::move(transport);
  return doc;
}

Result<std::unique_ptr<FramedDocument>> FramedDocument::Open(
    std::unique_ptr<service::wire::FrameTransport> transport,
    const std::string& xmas_text, int64_t deadline_ns,
    const net::RetryOptions& retry, uint64_t seed) {
  Result<std::unique_ptr<FramedDocument>> doc =
      Open(transport.get(), xmas_text, deadline_ns, retry, seed);
  if (!doc.ok()) return doc.status();
  doc.value()->owned_transport_ = std::move(transport);
  return doc;
}

void FramedDocument::set_retry(const net::RetryOptions& retry, uint64_t seed) {
  retry_ = std::make_unique<net::RetryPolicy>(retry, seed);
}

Status FramedDocument::Close() {
  // A close that failed in transit is safe to re-issue: a duplicate close
  // reports kNotFound, which is non-retryable and surfaces as-is.
  shipped_.clear();
  Frame req = Request(MsgType::kClose);
  Result<Frame> resp = CallWithRetry(req);
  if (!resp.ok()) {
    last_status_ = resp.status();
    return resp.status();
  }
  return Status::OK();
}

Frame FramedDocument::Request(MsgType type) const {
  Frame f;
  f.type = type;
  f.session = session_;
  f.deadline_ns = deadline_ns_;
  return f;
}

Result<Frame> FramedDocument::CallWithRetry(const Frame& request) {
  if (retry_ == nullptr) return service::wire::Call(transport_, request);
  Result<Frame> result = Status::Internal("call never attempted");
  // No clock: client-side retries are attempt-bounded, not time-funded —
  // the transport's own latency paces them.
  net::RetryPolicy::Outcome outcome = retry_->Run(
      [&]() {
        result = service::wire::Call(transport_, request);
        return result.ok() ? Status::OK() : result.status();
      },
      /*clock=*/nullptr, /*deadline_ns=*/-1);
  retries_ += outcome.retries;
  if (!outcome.status.ok()) return outcome.status;
  return result;
}

std::optional<Frame> FramedDocument::Dispatch(const Frame& request) {
  Result<Frame> resp = CallWithRetry(request);
  if (!resp.ok()) {
    last_status_ = resp.status();
    return std::nullopt;
  }
  return std::move(resp).ValueOrDie();
}

NodeId FramedDocument::Root() {
  std::optional<Frame> resp = Dispatch(Request(MsgType::kRoot));
  if (!resp.has_value() || !resp->flag) return NodeId();
  return resp->node;
}

bool FramedDocument::Chunk(MsgType type, const NodeId& p, int64_t chunk,
                           std::optional<NodeId>* first) {
  Frame req = Request(type);
  req.node = p;
  req.number = chunk;
  std::optional<Frame> resp = Dispatch(req);
  if (!resp.has_value()) return false;
  if (resp->type != MsgType::kNodeList ||
      resp->strings.size() != resp->nodes.size()) {
    last_status_ = Status::Internal("malformed sibling chunk");
    return false;
  }
  const int64_t next_chunk = std::min(2 * chunk, kMaxChunk);
  for (size_t i = 0; i < resp->nodes.size(); ++i) {
    Shipped& s = shipped_[resp->nodes[i]];
    s.label = std::move(resp->strings[i]);
    if (i + 1 < resp->nodes.size()) {
      s.link = Shipped::Link::kNext;
      s.next = resp->nodes[i + 1];
    } else if (resp->flag) {
      s.link = Shipped::Link::kEnd;
    } else {
      s.link = Shipped::Link::kAsk;
      s.ask_chunk = next_chunk;
    }
  }
  if (!resp->nodes.empty()) *first = std::move(resp->nodes.front());
  return true;
}

void FramedDocument::TakeLink(ShippedMap::iterator it) {
  it->second.link = Shipped::Link::kTaken;
  if (!it->second.label.has_value()) shipped_.erase(it);
}

std::optional<NodeId> FramedDocument::Down(const NodeId& p) {
  std::optional<NodeId> first;
  Chunk(MsgType::kDown, p, kFirstChunk, &first);
  return first;
}

std::optional<NodeId> FramedDocument::Right(const NodeId& p) {
  int64_t chunk = kFirstChunk;
  auto it = shipped_.find(p);
  if (it != shipped_.end()) {
    switch (it->second.link) {
      case Shipped::Link::kNext: {
        NodeId next = std::move(it->second.next);
        TakeLink(it);
        return next;
      }
      case Shipped::Link::kEnd:
        TakeLink(it);
        return std::nullopt;
      case Shipped::Link::kAsk:
        chunk = it->second.ask_chunk;
        break;
      case Shipped::Link::kTaken:
        break;
    }
  }
  // A continuation keeps its link until it succeeds, so a retry after an
  // error frame asks for the same chunk again.
  std::optional<NodeId> next;
  if (Chunk(MsgType::kRight, p, chunk, &next)) {
    it = shipped_.find(p);
    if (it != shipped_.end() && it->second.link == Shipped::Link::kAsk) {
      TakeLink(it);
    }
  }
  return next;
}

Label FramedDocument::Fetch(const NodeId& p) {
  auto it = shipped_.find(p);
  if (it != shipped_.end() && it->second.label.has_value()) {
    Label label = *std::move(it->second.label);
    it->second.label.reset();
    if (it->second.link == Shipped::Link::kTaken) shipped_.erase(it);
    return label;
  }
  Frame req = Request(MsgType::kFetch);
  req.node = p;
  std::optional<Frame> resp = Dispatch(req);
  if (!resp.has_value()) return "";
  return std::move(resp->text);
}

std::optional<NodeId> FramedDocument::SelectSibling(
    const NodeId& p, const LabelPredicate& pred) {
  if (!pred.is_equality()) return Navigable::SelectSibling(p, pred);
  Frame req = Request(MsgType::kSelectSibling);
  req.node = p;
  req.text2 = pred.equals_atom().name();
  std::optional<Frame> resp = Dispatch(req);
  if (!resp.has_value() || !resp->flag) return std::nullopt;
  return resp->node;
}

std::optional<NodeId> FramedDocument::NthChild(const NodeId& p, int64_t index) {
  Frame req = Request(MsgType::kNthChild);
  req.node = p;
  req.number = index;
  std::optional<Frame> resp = Dispatch(req);
  if (!resp.has_value() || !resp->flag) return std::nullopt;
  return resp->node;
}

void FramedDocument::DownAll(const NodeId& p, std::vector<NodeId>* out) {
  Frame req = Request(MsgType::kDownAll);
  req.node = p;
  std::optional<Frame> resp = Dispatch(req);
  if (!resp.has_value()) return;
  out->insert(out->end(), resp->nodes.begin(), resp->nodes.end());
}

void FramedDocument::NextSiblings(const NodeId& p, int64_t limit,
                                  std::vector<NodeId>* out) {
  Frame req = Request(MsgType::kNextSiblings);
  req.node = p;
  req.number = limit;
  std::optional<Frame> resp = Dispatch(req);
  if (!resp.has_value()) return;
  out->insert(out->end(), resp->nodes.begin(), resp->nodes.end());
}

void FramedDocument::FetchSubtree(const NodeId& p, int64_t depth,
                                  std::vector<SubtreeEntry>* out) {
  Frame req = Request(MsgType::kFetchSubtree);
  req.node = p;
  req.number = depth;
  std::optional<Frame> resp = Dispatch(req);
  if (!resp.has_value()) return;
  out->insert(out->end(), resp->entries.begin(), resp->entries.end());
}

}  // namespace mix::client
