// Fault-injecting LxpWrapper decorator.
//
// Wraps any wrapper and, per exchange, injects the failure modes a live
// source exhibits: refusals (fail-with-Status / fail-N-then-succeed),
// stalls (SimClock delays), and corrupt responses. Corruption is always
// *protocol-detectable* — a dropped requested entry, adjacent holes, a
// re-refined hole id — never a plausible wrong answer, so a buffer that
// validates fills either recovers byte-exactly or reports a typed error; it can never silently serve injected garbage.
//
// Determinism: decisions come from a seeded FaultPolicy, so a test that
// fixes the seed replays the exact same fault schedule every run.
#ifndef MIX_BUFFER_FAULT_WRAPPER_H_
#define MIX_BUFFER_FAULT_WRAPPER_H_

#include <memory>
#include <string>
#include <vector>

#include "buffer/lxp.h"
#include "net/fault.h"

namespace mix::buffer {

class FaultyLxpWrapper : public LxpWrapper {
 public:
  /// Non-owning: `inner` must outlive this wrapper.
  FaultyLxpWrapper(LxpWrapper* inner, const net::FaultSpec& spec, uint64_t seed);
  /// Owning variant (what per-session wrapper factories hand over).
  FaultyLxpWrapper(std::unique_ptr<LxpWrapper> inner, const net::FaultSpec& spec,
                   uint64_t seed);

  /// Injected delays advance this clock (optional; typically the session's
  /// demand-channel clock, so stalls cost simulated time like traffic does).
  void AttachClock(net::SimClock* clock) { policy_.AttachClock(clock); }
  net::FaultPolicy& policy() { return policy_; }

  // Legacy (infallible) path: fault-free passthrough. The buffer talks to
  // wrappers only through TryGetRoot and BeginFillMany, whose sync shim
  // runs TryFillMany (every fill, a single hole's included, is a fill_many
  // exchange), so those two are where injection lives.
  std::string GetRoot(const std::string& uri) override;
  FragmentList Fill(const std::string& hole_id) override;
  HoleFillList FillMany(const std::vector<std::string>& holes,
                        const FillBudget& budget) override;

  Status TryGetRoot(const std::string& uri, std::string* out) override;
  /// One decision per exchange, keyed on its first requested hole.
  Status TryFillMany(const std::vector<std::string>& holes,
                     const FillBudget& budget, HoleFillList* out) override;

 private:
  std::unique_ptr<LxpWrapper> owned_;
  LxpWrapper* inner_;
  net::FaultPolicy policy_;
};

}  // namespace mix::buffer

#endif  // MIX_BUFFER_FAULT_WRAPPER_H_
