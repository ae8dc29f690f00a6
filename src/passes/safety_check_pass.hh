/**
 * @file
 * Pipeline integration of the guard-safety checker: an observer
 * installer that re-checks the module after every pipeline pass from
 * the pointer-guards pass onward, recording each checked stage into a
 * SafetyReport. System::compile (core/system.cc) installs the
 * observer when SystemConfig::checkSafety is set; tfmc surfaces the
 * report through --check-safety.
 */

#ifndef TRACKFM_PASSES_SAFETY_CHECK_PASS_HH
#define TRACKFM_PASSES_SAFETY_CHECK_PASS_HH

#include <functional>
#include <string>
#include <vector>

#include "analysis/guard_safety.hh"
#include "pass.hh"

namespace tfm
{

/** Checker results accumulated across one pipeline run. */
struct SafetyReport
{
    struct PassEntry
    {
        std::string pass; ///< the pass whose output was checked
        std::vector<SafetyDiagnostic> diagnostics;
    };

    /// One entry per checked pipeline stage, in execution order.
    std::vector<PassEntry> perPass;

    std::size_t totalDiagnostics() const;
    bool clean() const { return totalDiagnostics() == 0; }
};

/** Called after each checked stage with (pass name, diagnostic count);
 *  the driver uses it to mirror counts into the observability trace. */
using SafetyCheckCallback =
    std::function<void(const std::string &, std::size_t)>;

/**
 * Install a PassManager observer that runs the guard-safety checker on
 * the module after every pass from the pointer-guards pass onward (IR
 * before it legitimately contains unguarded heap accesses, so checking
 * it would only produce noise). Chains to @p next when set;
 * @p on_checked fires per checked stage.
 */
void installSafetyObserver(
    PassManager &manager, SafetyReport &report,
    std::function<void(const std::string &, const ir::Module &)> next =
        nullptr,
    SafetyCheckCallback on_checked = nullptr);

} // namespace tfm

#endif // TRACKFM_PASSES_SAFETY_CHECK_PASS_HH
