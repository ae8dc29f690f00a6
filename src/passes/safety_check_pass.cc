#include "safety_check_pass.hh"

#include <memory>

namespace tfm
{

std::size_t
SafetyReport::totalDiagnostics() const
{
    std::size_t total = 0;
    for (const PassEntry &entry : perPass)
        total += entry.diagnostics.size();
    return total;
}

void
installSafetyObserver(
    PassManager &manager, SafetyReport &report,
    std::function<void(const std::string &, const ir::Module &)> next,
    SafetyCheckCallback on_checked)
{
    // The armed flag lives on the heap so the observer stays valid
    // however long the PassManager keeps it.
    auto armed = std::make_shared<bool>(false);
    manager.setObserver(
        [&report, next = std::move(next),
         on_checked = std::move(on_checked),
         armed](const std::string &pass, const ir::Module &module) {
            if (next)
                next(pass, module);
            if (pass == "pointer-guards")
                *armed = true;
            if (!*armed)
                return;
            SafetyReport::PassEntry entry;
            entry.pass = pass;
            entry.diagnostics = checkGuardSafety(module);
            const std::size_t count = entry.diagnostics.size();
            report.perPass.push_back(std::move(entry));
            if (on_checked)
                on_checked(pass, count);
        });
}

} // namespace tfm
