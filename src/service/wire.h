// Framed wire protocol for the mixd service layer.
//
// The paper's MIX mediator is a server: clients hold handles into virtual
// answer documents and drive DOM-VXD dialogues against it over a network.
// This codec gives those dialogues a concrete wire shape: every DOM-VXD
// command (d/r/f/σ, NthChild, and the vectored DownAll/NextSiblings/
// FetchSubtree forms) and both LXP commands (get_root, and fill as
// fill_many: a single-hole fill is a one-hole list) is one length-prefixed
// frame, answered by one response frame.
//
// Because node-ids are self-describing Skolem terms (node_id.h), they
// serialize structurally and the server needs *no* per-client pointer table:
// any id a client echoes back decodes to a term the lazy mediators resolve
// by value — the paper's association-encoding argument (Section 3) is
// exactly what makes the protocol stateless per command.
//
// Robustness contract: EncodeFrame always produces a well-formed frame;
// DecodeFrame never dies on wire input — truncated, oversized, corrupt-tag,
// or depth-bomb payloads all come back as Status errors (no MIX_CHECK on
// any byte a peer controls).
#ifndef MIX_SERVICE_WIRE_H_
#define MIX_SERVICE_WIRE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "buffer/async_fill.h"
#include "buffer/lxp.h"
#include "core/navigable.h"
#include "core/node_id.h"
#include "core/status.h"

namespace mix::service::wire {

/// Frame types. Requests are < 64, responses >= 64; anything else is a
/// corrupt tag and fails decoding. So do 13 and 72, the single-hole
/// kLxpFill/kLxpFillResp pair of wire version 1: a one-hole kLxpFillMany
/// is the same exchange.
enum class MsgType : uint8_t {
  // --- session / DOM-VXD requests ---
  kOpen = 1,          ///< text = XMAS query; response kOpenOk.
  kClose = 2,         ///< close `session`; response kCloseOk.
  kRoot = 3,          ///< response kNode (always present).
  kDown = 4,          ///< node = p; response kNode.
  kRight = 5,         ///< node = p; response kNode.
  kFetch = 6,         ///< node = p; response kLabel.
  kSelectSibling = 7, ///< node = p, text2 = equality label; response kNode.
  kNthChild = 8,      ///< node = p, number = index; response kNode.
  kDownAll = 9,       ///< node = p; response kNodeList.
  kNextSiblings = 10, ///< node = p, number = limit; response kNodeList.
  kFetchSubtree = 11, ///< node = p, number = depth; response kSubtree.
  // --- LXP requests (remote wrapper serving) ---
  kLxpGetRoot = 12,   ///< text = uri; response kLxpRoot.
  kLxpFillMany = 14,  ///< text = uri, strings = holes, number/number2 =
                      ///< budget (elements, fills); response kLxpFills.
  kMetrics = 15,      ///< response kMetricsText (service-wide snapshot).

  // --- responses ---
  kError = 64,        ///< number = Status::Code, text = message.
  kOpenOk = 65,       ///< session = new session id.
  kCloseOk = 66,
  kNode = 67,         ///< flag = present, node = id when present.
  kLabel = 68,        ///< text = label.
  kNodeList = 69,     ///< nodes.
  kSubtree = 70,      ///< entries.
  kLxpRoot = 71,      ///< text = root hole id.
  kLxpFills = 73,     ///< hole_fills.
  kMetricsText = 74,  ///< text = rendered snapshot.
};

/// Decoded frame. One struct covers every message; each type reads the
/// fields its doc comment names and ignores the rest (unused fields encode
/// as empties — the uniform layout keeps the codec small and every decode
/// path bounds-checked).
struct Frame {
  MsgType type = MsgType::kError;
  uint64_t session = 0;
  /// Request budget in nanoseconds, relative to admission (0 = none). The
  /// executor turns it into an absolute deadline at submit time.
  int64_t deadline_ns = 0;
  int64_t number = 0;
  int64_t number2 = 0;
  bool flag = false;
  std::string text;
  std::string text2;
  NodeId node;
  std::vector<NodeId> nodes;
  std::vector<std::string> strings;
  std::vector<SubtreeEntry> entries;
  buffer::HoleFillList hole_fills;

  /// Convenience constructors for the common response shapes.
  static Frame Error(const Status& status);
  static Frame OptionalNode(const std::optional<NodeId>& id);
  /// If this is a kError frame, the Status it carries; OK otherwise.
  Status ToStatus() const;
};

/// Hard limits the decoder enforces (all violations are Status errors).
inline constexpr size_t kMaxFrameBytes = 16u << 20;  ///< 16 MiB payload.
inline constexpr size_t kMaxListLength = 1u << 20;
inline constexpr int kMaxTermDepth = 64;  ///< nested NodeId / Fragment depth.

/// Serializes `frame` as one length-prefixed frame:
///   [u32 payload_len]['M']['X'][u8 version][u8 type][payload]
/// Integers are little-endian; strings and lists are u32-length-prefixed.
std::string EncodeFrame(const Frame& frame);

/// Decodes exactly one frame from `bytes`. Fails (without dying) on short
/// buffers, bad magic/version, unknown type, payload-length mismatch,
/// oversized strings/lists, and over-deep nested terms. When `consumed` is
/// null, trailing bytes after the frame are an error; otherwise it receives
/// the frame's total size.
Result<Frame> DecodeFrame(std::string_view bytes, size_t* consumed = nullptr);

/// Outcome of inspecting the *prefix* of a byte stream for one frame — the
/// primitive a stream transport's reassembly loop needs: DecodeFrame cannot
/// distinguish "wait for more bytes" from "this connection is garbage", but
/// a socket reader must (the former re-arms the read, the latter closes the
/// connection).
enum class FramePeek {
  kNeedMore,  ///< valid prefix, shorter than one frame — keep reading
  kReady,     ///< a whole frame is buffered (`*frame_size` bytes of it)
  kCorrupt,   ///< header can never become a frame — abandon the stream
};

/// Examines the start of `bytes` without decoding the payload. On kReady,
/// `*frame_size` is the frame's total length (header + payload) and
/// `bytes.substr(0, *frame_size)` is ready for DecodeFrame. On kCorrupt,
/// `*error` (optional) names the violation — bad magic/version, unknown
/// type, payload over kMaxFrameBytes.
FramePeek PeekFrame(std::string_view bytes, size_t* frame_size,
                    Status* error = nullptr);

/// A synchronous frame conduit — the client side's view of a mixd server.
/// In-process, MediatorService implements this directly; a socket transport
/// would frame the same bytes onto a connection.
class FrameTransport {
 public:
  virtual ~FrameTransport() = default;

  /// Delivers one encoded request frame and returns the encoded response
  /// frame. Transport-level failures (not server-reported errors, which
  /// arrive as kError frames) come back as non-OK Results.
  virtual Result<std::string> RoundTrip(const std::string& request_bytes) = 0;

  /// Async submit/complete: delivers the request and invokes `done` with
  /// the response exactly once — possibly on another thread (transport
  /// dispatch thread, service worker). The default shim completes inline
  /// via RoundTrip (deterministic immediate completion — the sim
  /// transport's mode). Implementations guarantee `done` fires even on
  /// failure and on transport teardown (with a non-OK Result), so a caller
  /// blocked on a completion can never hang.
  ///
  /// Lifetime contract: `done` must own everything it touches (capture
  /// shared state by shared_ptr, never a raw `this` that can die first) —
  /// that is what makes dropping the submitting object a safe cancel.
  using AsyncDone = std::function<void(Result<std::string>)>;
  virtual void RoundTripAsync(std::string request_bytes, AsyncDone done) {
    done(RoundTrip(request_bytes));
  }
};

/// Encode + RoundTrip + decode in one step.
Result<Frame> Call(FrameTransport* transport, const Frame& request);

/// Client-side LXP stub: a buffer::LxpWrapper whose fills are frames to a
/// mixd server exporting the wrapper under `uri`. Plugging it under an
/// ordinary BufferComponent demand-pages a *remote* source through the
/// same open-tree machinery as a local one.
class FramedLxpWrapper : public buffer::LxpWrapper {
 public:
  /// Non-owning: `transport` must outlive the stub.
  FramedLxpWrapper(FrameTransport* transport, std::string uri)
      : transport_(transport), uri_(std::move(uri)) {}
  /// Owning variant — one connection per stub, which is what a per-session
  /// wrapper factory for a remote source hands over (fleet::
  /// RemoteSourceFactory).
  FramedLxpWrapper(std::unique_ptr<FrameTransport> transport, std::string uri)
      : owned_(std::move(transport)),
        transport_(owned_.get()),
        uri_(std::move(uri)) {}

  std::string GetRoot(const std::string& uri) override;
  buffer::FragmentList Fill(const std::string& hole_id) override;
  buffer::HoleFillList FillMany(const std::vector<std::string>& holes,
                                const buffer::FillBudget& budget) override;

  /// Primary path: frame the exchange and report transport/server failures
  /// as Status — what lets a BufferComponent on top retry or degrade
  /// instead of silently receiving empty results.
  Status TryGetRoot(const std::string& uri, std::string* out) override;
  /// A one-hole kLxpFillMany with a one-fill budget.
  Status TryFill(const std::string& hole_id,
                 buffer::FragmentList* out) override;
  Status TryFillMany(const std::vector<std::string>& holes,
                     const buffer::FillBudget& budget,
                     buffer::HoleFillList* out) override;

  /// Genuinely async fill for a readahead flight (a budget bounded by fill
  /// count): encodes the exchange up front and submits it via
  /// RoundTripAsync. The completion captures only the returned future (no
  /// `this`), so the stub — and the session owning it — may be destroyed
  /// while the exchange is in flight; the transport still completes the
  /// future and the last reference drops it. A demand exchange (fills
  /// unbounded), which the buffer waits on at once, runs inline as
  /// TryFillMany: a hop through the transport's dispatch thread would only
  /// add a wake-up to a call that blocks anyway.
  std::shared_ptr<buffer::FillFuture> BeginFillMany(
      const std::vector<std::string>& holes,
      const buffer::FillBudget& budget) override;

  /// The legacy (infallible) LxpWrapper face cannot report failures, so
  /// there errors surface as empty results; the last non-OK status is
  /// retained here either way.
  const Status& last_status() const { return last_status_; }

 private:
  std::unique_ptr<FrameTransport> owned_;
  FrameTransport* transport_;
  std::string uri_;
  Status last_status_;
};

}  // namespace mix::service::wire

#endif  // MIX_SERVICE_WIRE_H_
