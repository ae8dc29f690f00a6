#!/usr/bin/env python3
"""Rank sampler.cc's samples: report.py tfm-samples.<pid>... A sample in
libc counts for its caller (the stack-top word). addr2line -i resolves
each; they are ranked by containing function (with its file), innermost
inlined function, and source line."""
import collections, subprocess, sys

maps, samples = [], []
for path in sys.argv[1:]:
    for f in (line.split() for line in open(path)):
        if f[0] == "map":
            lo, hi = (int(x, 16) for x in f[1].split("-"))
            maps.append((lo, hi, int(f[3], 16), f[-1]))
        else:
            samples.append([int(x, 16) for x in f])

def module(addr):
    return next((m for m in maps if m[0] <= addr < m[1]), (0, 0, 0, "?"))

sites = collections.Counter()
for rip, top in samples:
    m = module(rip)
    if "/libc" in m[3] and module(top)[3] not in ("?", m[3]):
        rip, m = top - 1, module(top)  # the call that entered libc
    pie = m[3] != "?" and open(m[3], "rb").read(18)[16] == 3  # ET_DYN
    sites[(m[3], rip - m[0] + m[2] if pie else rip)] += 1

tables = [collections.Counter() for _ in range(3)]
for path in {p for p, _ in sites}:
    addrs = [a for p, a in sites if p == path]
    out = subprocess.run(["addr2line", "-aifCe", path] + [hex(a) for a in addrs],
                         capture_output=True, text=True).stdout
    frames = {}
    for line in out.split("\n") if path != "?" else []:
        if line.startswith("0x"):
            cur = frames.setdefault(int(line, 16), [])
        elif line:
            cur.append(line)
    for a in addrs:
        fr, n = frames.get(a) or ["?? " + path, "??:0"], sites[(path, a)]
        tables[0][f"{fr[-2]}  [{fr[-1].split(':')[0]}]"] += n
        tables[1][fr[0]] += n
        tables[2][f"{fr[1].split(' ')[0]} ({fr[0]})"] += n

for title, table in zip(["containing function", "innermost function",
                         "line"], tables):
    print(f"\n{len(samples)} samples by {title}:")
    for key, n in table.most_common(20):
        print(f"{100 * n / max(1, len(samples)):6.1f}%  {key}")
