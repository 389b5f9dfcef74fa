// Client-side session stub: a Navigable over the mixd wire protocol.
//
// FramedDocument is what turns a remote mediator session into "just another
// document": it implements the full Navigable interface by encoding DOM-VXD
// commands as frames, round-tripping them through a FrameTransport, and
// decoding the responses. d and r ask for a chunk of siblings with their
// labels (paper Section 4: LXP ships sibling chunks): the server answers
// with up to that many nodes of the sibling list, and the stub serves later
// f and r on those nodes from the chunk without a frame. Chunks slow-start
// like the buffer's readahead window: 2 on a d, doubled per continuation r,
// up to kMaxChunk. Every other command is one frame. Layered under client::VirtualXmlDocument, the
// paper's transparency property (Section 5) extends across the service
// boundary — XmlElement code cannot tell a framed session from an
// in-process mediator, which the codec round-trip tests assert byte for
// byte.
//
// Error model: Navigable has no Status channel (the paper's d/r/f return
// node-or-⊥), so failures — overload, expired deadlines, closed sessions —
// surface as ⊥/empty results, and the precise Status is latched in
// last_status() for the application to inspect. Navigating on after an
// error is safe: the session (if alive) is untouched by failed requests.
#ifndef MIX_CLIENT_FRAMED_DOCUMENT_H_
#define MIX_CLIENT_FRAMED_DOCUMENT_H_

#include <memory>
#include <string>
#include <unordered_map>

#include "core/navigable.h"
#include "core/status.h"
#include "net/fault.h"
#include "service/wire.h"

namespace mix::client {

class FramedDocument : public Navigable {
 public:
  /// Chunk sizes a d asks for first and a continuation r grows to.
  static constexpr int64_t kFirstChunk = 2;
  static constexpr int64_t kMaxChunk = 64;

  /// Opens a session for `xmas_text` on the server behind `transport`.
  /// `deadline_ns` (0 = none) applies to the open and every later command.
  static Result<std::unique_ptr<FramedDocument>> Open(
      service::wire::FrameTransport* transport, const std::string& xmas_text,
      int64_t deadline_ns = 0);

  /// Open with client-side retry: the open frame itself and every later
  /// command retry transport-level failures per `retry`. (Server-reported
  /// errors come back as kError frames, which Call converts to their
  /// Status — retryable codes among those are retried too.)
  static Result<std::unique_ptr<FramedDocument>> Open(
      service::wire::FrameTransport* transport, const std::string& xmas_text,
      int64_t deadline_ns, const net::RetryOptions& retry,
      uint64_t seed = 0x636c69656e742d72ull);

  /// Owning-transport Open: the document takes the transport with it. This
  /// is the factory seam a connection-minting tier plugs into — e.g.
  /// fleet::SessionRouter::OpenDocument hands each client document its own
  /// routed transport — without the caller tracking two lifetimes.
  static Result<std::unique_ptr<FramedDocument>> Open(
      std::unique_ptr<service::wire::FrameTransport> transport,
      const std::string& xmas_text, int64_t deadline_ns = 0);
  static Result<std::unique_ptr<FramedDocument>> Open(
      std::unique_ptr<service::wire::FrameTransport> transport,
      const std::string& xmas_text, int64_t deadline_ns,
      const net::RetryOptions& retry, uint64_t seed = 0x636c69656e742d72ull);

  /// Closes the server-side session; further navigation returns ⊥ with
  /// last_status() == kNotFound. Idempotent (second close reports the
  /// server's kNotFound).
  Status Close();

  uint64_t session_id() const { return session_; }
  const Status& last_status() const { return last_status_; }
  void clear_last_status() { last_status_ = Status::OK(); }
  /// Per-command deadline for subsequent requests (0 = none).
  void set_deadline_ns(int64_t ns) { deadline_ns_ = ns; }

  /// Installs (or replaces) client-side retry for subsequent commands.
  /// Client retries are attempt-bounded only (no clock: the transport's own
  /// latency is the pacing); navigation requests are idempotent reads, so
  /// re-issuing them is always safe.
  void set_retry(const net::RetryOptions& retry,
                 uint64_t seed = 0x636c69656e742d72ull);
  /// Command re-issues performed by this stub so far.
  int64_t retries() const { return retries_; }

  // --- Navigable over frames ---
  NodeId Root() override;
  std::optional<NodeId> Down(const NodeId& p) override;
  std::optional<NodeId> Right(const NodeId& p) override;
  Label Fetch(const NodeId& p) override;
  /// Equality predicates travel as σ frames; arbitrary predicates fall back
  /// to the base-class r/f loop (they cannot be serialized).
  std::optional<NodeId> SelectSibling(const NodeId& p,
                                      const LabelPredicate& pred) override;
  std::optional<NodeId> NthChild(const NodeId& p, int64_t index) override;
  void DownAll(const NodeId& p, std::vector<NodeId>* out) override;
  void NextSiblings(const NodeId& p, int64_t limit,
                    std::vector<NodeId>* out) override;
  void FetchSubtree(const NodeId& p, int64_t depth,
                    std::vector<SubtreeEntry>* out) override;

 private:
  FramedDocument(service::wire::FrameTransport* transport, uint64_t session,
                 int64_t deadline_ns)
      : transport_(transport), session_(session), deadline_ns_(deadline_ns) {}

  /// Builds a request frame bound to this session/deadline.
  service::wire::Frame Request(service::wire::MsgType type) const;
  /// wire::Call, re-issued under the installed retry policy (if any).
  Result<service::wire::Frame> CallWithRetry(
      const service::wire::Frame& request);
  /// Calls and latches errors; nullopt response on failure.
  std::optional<service::wire::Frame> Dispatch(
      const service::wire::Frame& request);

  service::wire::FrameTransport* transport_;
  /// Set only by the owning-transport Open overloads; transport_ aliases it
  /// then. Destroyed after no request can be in flight (documents are not
  /// thread-safe, so destruction is ordered after the last call).
  std::unique_ptr<service::wire::FrameTransport> owned_transport_;
  uint64_t session_;
  int64_t deadline_ns_;
  Status last_status_;
  std::unique_ptr<net::RetryPolicy> retry_;
  int64_t retries_ = 0;

  /// What a d/r chunk shipped about one node, kept until used: the label
  /// until a Fetch takes it, the right link until a Right takes it. The
  /// entry goes once both are taken, so a forward walk holds only the
  /// open chunks on its path.
  struct Shipped {
    enum class Link : uint8_t { kTaken, kNext, kEnd, kAsk };
    std::optional<Label> label;
    Link link = Link::kTaken;
    NodeId next;            ///< kNext: the right sibling
    int64_t ask_chunk = 0;  ///< kAsk: size of the continuation chunk
  };
  using ShippedMap = std::unordered_map<NodeId, Shipped, NodeIdHash>;
  /// Sends a d/r frame asking for `chunk` siblings and records what it
  /// ships; *first is the first node (untouched when the list is empty).
  /// False, with nothing recorded, when the exchange failed.
  bool Chunk(service::wire::MsgType type, const NodeId& p, int64_t chunk,
             std::optional<NodeId>* first);
  /// Marks the entry's right link used; drops the entry if its label is too.
  void TakeLink(ShippedMap::iterator it);
  ShippedMap shipped_;
};

}  // namespace mix::client

#endif  // MIX_CLIENT_FRAMED_DOCUMENT_H_
