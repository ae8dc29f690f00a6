#include "aifm_runtime.hh"

namespace tfm
{

void
AifmRuntime::exportStats(StatSet &set) const
{
    set.add("aifm.derefs", _stats.derefs);
    set.add("aifm.misses", _stats.misses);
    rt.exportStats(set);
}

} // namespace tfm
