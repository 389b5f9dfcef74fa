#include "service/wire.h"

#include <cstring>

namespace mix::service::wire {

namespace {

constexpr uint8_t kMagic0 = 'M';
constexpr uint8_t kMagic1 = 'X';
// Version 2 retired the single-hole fill pair (types 13 and 72) and the
// payload's fragment list that only they used. Version 3 answers kDown and
// kRight with a sibling chunk (kNodeList with labels) instead of kNode.
constexpr uint8_t kVersion = 3;
constexpr size_t kHeaderBytes = 8;  // len(4) + magic(2) + version(1) + type(1)
constexpr uint8_t kRetiredLxpFill = 13;
constexpr uint8_t kRetiredLxpFillResp = 72;

bool KnownType(uint8_t t) {
  if (t == kRetiredLxpFill || t == kRetiredLxpFillResp) return false;
  return (t >= static_cast<uint8_t>(MsgType::kOpen) &&
          t <= static_cast<uint8_t>(MsgType::kMetrics)) ||
         (t >= static_cast<uint8_t>(MsgType::kError) &&
          t <= static_cast<uint8_t>(MsgType::kMetricsText));
}

// --- encoding -------------------------------------------------------------

void PutU8(std::string* out, uint8_t v) { out->push_back(static_cast<char>(v)); }

void PutU32(std::string* out, uint32_t v) {
  char b[4] = {static_cast<char>(v), static_cast<char>(v >> 8),
               static_cast<char>(v >> 16), static_cast<char>(v >> 24)};
  out->append(b, 4);
}

void PutI64(std::string* out, int64_t v) {
  uint64_t u = static_cast<uint64_t>(v);
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>(u >> (8 * i));
  out->append(b, 8);
}

void PutStr(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

void PutNodeId(std::string* out, const NodeId& id) {
  if (!id.valid()) {
    PutU8(out, 0);
    return;
  }
  PutU8(out, 1);
  PutStr(out, id.tag());
  PutU32(out, static_cast<uint32_t>(id.arity()));
  for (size_t i = 0; i < id.arity(); ++i) {
    const NodeIdComponent& c = id.ComponentAt(i);
    if (const auto* v = std::get_if<int64_t>(&c)) {
      PutU8(out, 0);
      PutI64(out, *v);
    } else if (const auto* s = std::get_if<std::string>(&c)) {
      PutU8(out, 1);
      PutStr(out, *s);
    } else {
      PutU8(out, 2);
      PutNodeId(out, std::get<NodeId>(c));
    }
  }
}

void PutFragment(std::string* out, const buffer::Fragment& f) {
  PutU8(out, f.is_hole ? 1 : 0);
  if (f.is_hole) {
    PutStr(out, f.hole_id);
    return;
  }
  PutU8(out, f.is_text ? 1 : 0);
  PutStr(out, f.label);
  PutU32(out, static_cast<uint32_t>(f.children.size()));
  for (const buffer::Fragment& c : f.children) PutFragment(out, c);
}

void PutSubtreeEntry(std::string* out, const SubtreeEntry& e) {
  PutStr(out, e.label.valid() ? e.label.name() : std::string_view());
  PutI64(out, e.depth);
  PutU8(out, e.truncated ? 1 : 0);
  PutNodeId(out, e.id);
}

// --- decoding -------------------------------------------------------------

/// Cursor over the payload bytes; every Read* bounds-checks and latches the
/// first error. Decoders check ok() once at the end (reads after an error
/// are harmless no-ops returning zero values).
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  size_t remaining() const { return bytes_.size() - pos_; }

  void Fail(std::string msg) {
    if (status_.ok()) status_ = Status::InvalidArgument(std::move(msg));
  }

  uint8_t ReadU8() {
    if (!Need(1)) return 0;
    return static_cast<uint8_t>(bytes_[pos_++]);
  }

  uint32_t ReadU32() {
    if (!Need(4)) return 0;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(bytes_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  int64_t ReadI64() {
    if (!Need(8)) return 0;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(bytes_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    return static_cast<int64_t>(v);
  }

  std::string ReadStr() {
    uint32_t len = ReadU32();
    if (!ok()) return {};
    if (len > remaining()) {
      Fail("string length exceeds frame");
      return {};
    }
    std::string s(bytes_.substr(pos_, len));
    pos_ += len;
    return s;
  }

  /// List headers are validated against the bytes actually left: any element
  /// costs at least one byte, so a count beyond `remaining()` is corrupt —
  /// this rejects length-bomb frames before allocating for them.
  uint32_t ReadListLen() {
    uint32_t n = ReadU32();
    if (!ok()) return 0;
    if (n > kMaxListLength || n > remaining()) {
      Fail("list length exceeds frame");
      return 0;
    }
    return n;
  }

 private:
  bool Need(size_t n) {
    if (!status_.ok()) return false;
    if (remaining() < n) {
      Fail("truncated frame payload");
      return false;
    }
    return true;
  }

  std::string_view bytes_;
  size_t pos_ = 0;
  Status status_;
};

NodeId ReadNodeId(Reader* r, int depth) {
  if (depth > kMaxTermDepth) {
    r->Fail("node-id nesting too deep");
    return NodeId();
  }
  if (r->ReadU8() == 0) return NodeId();
  std::string tag = r->ReadStr();
  uint32_t arity = r->ReadListLen();
  std::vector<NodeIdComponent> components;
  components.reserve(arity);
  for (uint32_t i = 0; i < arity && r->ok(); ++i) {
    switch (r->ReadU8()) {
      case 0:
        components.emplace_back(r->ReadI64());
        break;
      case 1:
        components.emplace_back(r->ReadStr());
        break;
      case 2:
        components.emplace_back(ReadNodeId(r, depth + 1));
        break;
      default:
        r->Fail("unknown node-id component kind");
        break;
    }
  }
  if (!r->ok()) return NodeId();
  return NodeId(std::move(tag), std::move(components));
}

buffer::Fragment ReadFragment(Reader* r, int depth) {
  buffer::Fragment f;
  if (depth > kMaxTermDepth) {
    r->Fail("fragment nesting too deep");
    return f;
  }
  f.is_hole = r->ReadU8() != 0;
  if (f.is_hole) {
    f.hole_id = r->ReadStr();
    return f;
  }
  f.is_text = r->ReadU8() != 0;
  f.label = r->ReadStr();
  uint32_t n = r->ReadListLen();
  f.children.reserve(n);
  for (uint32_t i = 0; i < n && r->ok(); ++i) {
    f.children.push_back(ReadFragment(r, depth + 1));
  }
  return f;
}

SubtreeEntry ReadSubtreeEntry(Reader* r) {
  SubtreeEntry e;
  std::string label = r->ReadStr();
  if (r->ok()) e.label = Atom::Intern(label);
  int64_t depth = r->ReadI64();
  if (depth < 0 || depth > INT32_MAX) {
    r->Fail("subtree entry depth out of range");
    return e;
  }
  e.depth = static_cast<int32_t>(depth);
  e.truncated = r->ReadU8() != 0;
  e.id = ReadNodeId(r, 0);
  return e;
}

}  // namespace

Frame Frame::Error(const Status& status) {
  Frame f;
  f.type = MsgType::kError;
  f.number = static_cast<int64_t>(status.code());
  f.text = status.message();
  return f;
}

Frame Frame::OptionalNode(const std::optional<NodeId>& id) {
  Frame f;
  f.type = MsgType::kNode;
  f.flag = id.has_value();
  if (id.has_value()) f.node = *id;
  return f;
}

Status Frame::ToStatus() const {
  if (type != MsgType::kError) return Status::OK();
  // An out-of-range code in an error frame still has to surface as *some*
  // error; map it to kInternal.
  int64_t code = number;
  if (code <= 0 || code > static_cast<int64_t>(Status::Code::kDataLoss)) {
    return Status::Internal("peer error: " + text);
  }
  return Status::FromCode(static_cast<Status::Code>(code), text);
}

std::string EncodeFrame(const Frame& frame) {
  std::string payload;
  PutI64(&payload, static_cast<int64_t>(frame.session));
  PutI64(&payload, frame.deadline_ns);
  PutI64(&payload, frame.number);
  PutI64(&payload, frame.number2);
  PutU8(&payload, frame.flag ? 1 : 0);
  PutStr(&payload, frame.text);
  PutStr(&payload, frame.text2);
  PutNodeId(&payload, frame.node);
  PutU32(&payload, static_cast<uint32_t>(frame.nodes.size()));
  for (const NodeId& id : frame.nodes) PutNodeId(&payload, id);
  PutU32(&payload, static_cast<uint32_t>(frame.strings.size()));
  for (const std::string& s : frame.strings) PutStr(&payload, s);
  PutU32(&payload, static_cast<uint32_t>(frame.entries.size()));
  for (const SubtreeEntry& e : frame.entries) PutSubtreeEntry(&payload, e);
  PutU32(&payload, static_cast<uint32_t>(frame.hole_fills.size()));
  for (const buffer::HoleFill& hf : frame.hole_fills) {
    PutStr(&payload, hf.hole_id);
    PutU32(&payload, static_cast<uint32_t>(hf.fragments.size()));
    for (const buffer::Fragment& f : hf.fragments) PutFragment(&payload, f);
  }

  std::string out;
  out.reserve(kHeaderBytes + payload.size());
  PutU32(&out, static_cast<uint32_t>(payload.size()));
  PutU8(&out, kMagic0);
  PutU8(&out, kMagic1);
  PutU8(&out, kVersion);
  PutU8(&out, static_cast<uint8_t>(frame.type));
  out += payload;
  return out;
}

FramePeek PeekFrame(std::string_view bytes, size_t* frame_size,
                    Status* error) {
  auto corrupt = [error](std::string msg) {
    if (error != nullptr) *error = Status::InvalidArgument(std::move(msg));
    return FramePeek::kCorrupt;
  };
  // Validate the fixed header fields as soon as their bytes are present, so
  // a garbled stream is abandoned at the earliest byte that proves it.
  if (bytes.size() > 4 && static_cast<uint8_t>(bytes[4]) != kMagic0) {
    return corrupt("bad frame magic");
  }
  if (bytes.size() > 5 && static_cast<uint8_t>(bytes[5]) != kMagic1) {
    return corrupt("bad frame magic");
  }
  if (bytes.size() > 6 && static_cast<uint8_t>(bytes[6]) != kVersion) {
    return corrupt("unsupported frame version");
  }
  if (bytes.size() > 7 && !KnownType(static_cast<uint8_t>(bytes[7]))) {
    return corrupt("unknown frame type " +
                   std::to_string(static_cast<uint8_t>(bytes[7])));
  }
  if (bytes.size() < 4) return FramePeek::kNeedMore;
  uint32_t payload_len = 0;
  for (int i = 0; i < 4; ++i) {
    payload_len |= static_cast<uint32_t>(static_cast<uint8_t>(bytes[i]))
                   << (8 * i);
  }
  if (payload_len > kMaxFrameBytes) {
    return corrupt("frame payload exceeds limit");
  }
  if (bytes.size() < kHeaderBytes) return FramePeek::kNeedMore;
  size_t total = kHeaderBytes + payload_len;
  if (bytes.size() < total) return FramePeek::kNeedMore;
  if (frame_size != nullptr) *frame_size = total;
  return FramePeek::kReady;
}

Result<Frame> DecodeFrame(std::string_view bytes, size_t* consumed) {
  if (bytes.size() < kHeaderBytes) {
    return Status::InvalidArgument("truncated frame header");
  }
  size_t frame_size = 0;
  Status header;
  switch (PeekFrame(bytes, &frame_size, &header)) {
    case FramePeek::kCorrupt:
      return header;
    case FramePeek::kNeedMore:
      return Status::InvalidArgument("truncated frame payload");
    case FramePeek::kReady:
      break;
  }
  if (consumed == nullptr && bytes.size() > frame_size) {
    return Status::InvalidArgument("trailing bytes after frame");
  }
  const size_t payload_len = frame_size - kHeaderBytes;

  Reader r(bytes.substr(kHeaderBytes, payload_len));
  Frame frame;
  frame.type = static_cast<MsgType>(static_cast<uint8_t>(bytes[7]));
  frame.session = static_cast<uint64_t>(r.ReadI64());
  frame.deadline_ns = r.ReadI64();
  frame.number = r.ReadI64();
  frame.number2 = r.ReadI64();
  frame.flag = r.ReadU8() != 0;
  frame.text = r.ReadStr();
  frame.text2 = r.ReadStr();
  frame.node = ReadNodeId(&r, 0);
  uint32_t n = r.ReadListLen();
  frame.nodes.reserve(n);
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    frame.nodes.push_back(ReadNodeId(&r, 0));
  }
  n = r.ReadListLen();
  frame.strings.reserve(n);
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    frame.strings.push_back(r.ReadStr());
  }
  n = r.ReadListLen();
  frame.entries.reserve(n);
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    frame.entries.push_back(ReadSubtreeEntry(&r));
  }
  n = r.ReadListLen();
  frame.hole_fills.reserve(n);
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    buffer::HoleFill hf;
    hf.hole_id = r.ReadStr();
    uint32_t m = r.ReadListLen();
    hf.fragments.reserve(m);
    for (uint32_t j = 0; j < m && r.ok(); ++j) {
      hf.fragments.push_back(ReadFragment(&r, 0));
    }
    frame.hole_fills.push_back(std::move(hf));
  }
  if (!r.ok()) return r.status();
  if (r.remaining() != 0) {
    return Status::InvalidArgument("excess bytes inside frame payload");
  }
  if (consumed != nullptr) *consumed = frame_size;
  return frame;
}

namespace {

/// A round trip's outcome as one Result: transport failure, undecodable
/// bytes and a peer's kError frame all come back as the error.
Result<Frame> DecodeResponse(const Result<std::string>& bytes) {
  if (!bytes.ok()) return bytes.status();
  Result<Frame> response = DecodeFrame(bytes.value());
  if (!response.ok()) return response.status();
  Status err = response.value().ToStatus();
  if (!err.ok()) return err;
  return response;
}

Frame FillManyRequest(const std::string& uri,
                      const std::vector<std::string>& holes,
                      const buffer::FillBudget& budget) {
  Frame req;
  req.type = MsgType::kLxpFillMany;
  req.text = uri;
  req.strings = holes;
  req.number = budget.elements;
  req.number2 = budget.fills;
  return req;
}

}  // namespace

Result<Frame> Call(FrameTransport* transport, const Frame& request) {
  return DecodeResponse(transport->RoundTrip(EncodeFrame(request)));
}

Status FramedLxpWrapper::TryGetRoot(const std::string& uri, std::string* out) {
  // The buffer passes its own uri through; the frame carries the exported
  // name this stub was bound to (they are typically the same string).
  Frame req;
  req.type = MsgType::kLxpGetRoot;
  req.text = uri.empty() ? uri_ : uri;
  Result<Frame> resp = Call(transport_, req);
  if (!resp.ok()) {
    last_status_ = resp.status();
    return resp.status();
  }
  *out = std::move(resp.value().text);
  return Status::OK();
}

Status FramedLxpWrapper::TryFill(const std::string& hole_id,
                                 buffer::FragmentList* out) {
  buffer::HoleFillList fills;
  Status s = TryFillMany({hole_id}, buffer::FillBudget{/*elements=*/-1,
                                                       /*fills=*/1},
                         &fills);
  if (!s.ok()) return s;
  if (fills.empty() || fills.front().hole_id != hole_id) {
    last_status_ = Status::InvalidArgument(
        "LXP batch violation: requested hole '" + hole_id + "' not answered");
    return last_status_;
  }
  *out = std::move(fills.front().fragments);
  return Status::OK();
}

std::shared_ptr<buffer::FillFuture> FramedLxpWrapper::BeginFillMany(
    const std::vector<std::string>& holes, const buffer::FillBudget& budget) {
  if (budget.fills < 0) return LxpWrapper::BeginFillMany(holes, budget);
  auto future = std::make_shared<buffer::FillFuture>();
  // The completion owns only the future: decoding is static, so the stub
  // (and its session) may die mid-flight without a dangling capture.
  transport_->RoundTripAsync(
      EncodeFrame(FillManyRequest(uri_, holes, budget)),
      [future](Result<std::string> bytes) {
        Result<Frame> resp = DecodeResponse(bytes);
        if (!resp.ok()) {
          future->Complete(resp.status(), {});
          return;
        }
        future->Complete(Status::OK(), std::move(resp.value().hole_fills));
      });
  return future;
}

Status FramedLxpWrapper::TryFillMany(const std::vector<std::string>& holes,
                                     const buffer::FillBudget& budget,
                                     buffer::HoleFillList* out) {
  Result<Frame> resp = Call(transport_, FillManyRequest(uri_, holes, budget));
  if (!resp.ok()) {
    last_status_ = resp.status();
    return resp.status();
  }
  *out = std::move(resp.value().hole_fills);
  return Status::OK();
}

std::string FramedLxpWrapper::GetRoot(const std::string& uri) {
  std::string out;
  if (!TryGetRoot(uri, &out).ok()) return "";
  return out;
}

buffer::FragmentList FramedLxpWrapper::Fill(const std::string& hole_id) {
  buffer::FragmentList out;
  if (!TryFill(hole_id, &out).ok()) return {};
  return out;
}

buffer::HoleFillList FramedLxpWrapper::FillMany(
    const std::vector<std::string>& holes, const buffer::FillBudget& budget) {
  buffer::HoleFillList out;
  if (!TryFillMany(holes, budget, &out).ok()) {
    // Degrade to the single-fill contract: answer each requested hole with
    // an empty refinement so callers of the infallible face stay consistent.
    buffer::HoleFillList fallback;
    for (const std::string& h : holes) fallback.push_back({h, {}});
    return fallback;
  }
  return out;
}

}  // namespace mix::service::wire
