#!/usr/bin/env python3
"""Per-layer CPU split from a sampleprof capture.

    python3 tools/sampleprof/report.py sampleprof.<pid>.txt [--tid N]
                                       [--top K] [--hot FUNC]

sampleprof.so (tools/sampleprof/sampleprof.c) writes one backtrace per
SIGPROF tick plus the process's /proc/self/maps. This script maps each
frame to its object and ELF virtual address, symbolizes it with `nm`
(function ranges; `addr2line` for what the symbol tables miss), picks one
thread -- by default the one with the most samples, which in a reactor
benchmark is the loop thread -- and attributes every sample to a layer:
walking the stack from the interrupted frame outwards, the first frame
whose function matches a layer's pattern names the layer. So a sample in
pthread_mutex_lock called by the auditor counts as `mutex`, one in the
auditor's own code as `auditor`, and one in memcpy as whatever called it.
A pattern is matched against the function's own qualified name, template
arguments included, never against its parameter list: net::Message is in
most core signatures, and taking one does not make a function network
code. A callable's trampoline (InlineFunction<...>::InlineOps<L>::invoke)
names its lambda L, so it counts with the lambda's owner.

Layers (first match per frame, in this order):

    syscalls      libc syscall wrappers (sendmmsg, recvmmsg, epoll_wait,
                  ...): time the kernel spent on the thread's behalf
    mutex         util::Mutex and pthread mutexes
    clock         steady-clock reads (the vDSO, clock_gettime, now())
    auditor       check::InvariantAuditor
    observers     the other protocol observers: scenario::Metrics, the
                  core::FanoutObserver that feeds every sink, stats::
                  accumulators, trace::EventLog
    service       runtime::AsyncPresenceService and its watch adapters
    timer wheel   des::Scheduler / des::WallClockTimerWheel
    network       net::Network, the delay and loss models
    udp           runtime::AsyncUdpTransport, the wire codec
    device        core devices
    cp core       core control points, the probe cycle, SAPP adaptation
    telemetry     telemetry:: counters, histograms, registry
    loop          runtime::EventLoop's own code
    other         anything else (libc/libstdc++ reached from no layer)

In the innermost-function table, stripped code is folded: the rows
`obj+0x... (past SYM)` of one object and neighbour become one row that
counts its addresses, `libc.so.6 (past __default_morecore), 107
addresses`, so glibc's allocator shows as one row, not a hundred rows of
0.1 % each below the --top cut. --hot keeps the per-address rows.

--hot FUNC adds a per-instruction view of every function whose demangled
name contains FUNC: the samples interrupted inside it, counted per
instruction address, with the instruction (objdump) and the source line
and innermost inlined function it belongs to (addr2line). A tick lands
on an instruction that has not retired yet: on a row that waits for
memory, the stalled load or the first instruction that consumes its
value. That is how to tell which load a function waits on. Exits 1 when
it prints no instruction row (no match, or only [vdso] matched).

Samples are CPU ticks of the kernel's HZ (about 250 per CPU-second on a
typical host): a one-minute run of a busy thread gives ~15k samples, a
few-second smoke only a few hundred. Objects shipped without a symbol
table (libc) name only their exported functions. An address that no
exported function's range covers (glibc's internal allocator code, say)
prints as the object and offset past its nearest exported symbol,
`libc.so.6+0x97000 (past __default_morecore)`, and takes that symbol's
layer, which is right as long as the neighbour belongs to the same
family (pthread_mutex_*).
"""

import argparse
import bisect
import collections
import os
import re
import struct
import subprocess
import sys

LAYERS = [
    ("syscalls", re.compile(
        r"^(__libc_|__GI___|__GI_|__)?(sendmmsg|recvmmsg|epoll_wait|"
        r"epoll_pwait2?|poll|ppoll|read|write|sendto|recvfrom|sendmsg|"
        r"recvmsg|syscall|eventfd_write|eventfd_read)(@.*)?$")),
    ("mutex", re.compile(
        r"util::Mutex::|util::MutexLock|pthread_mutex_|__lll_lock|"
        r"__lll_unlock|lock_order::")),
    ("clock", re.compile(
        r"^\[vdso\]$|clock_gettime|steady_clock::now|"
        r"WallClockTimerWheel::now$|EventLoop::now$")),
    ("auditor", re.compile(r"check::InvariantAuditor")),
    ("observers", re.compile(
        r"scenario::Metrics::|core::FanoutObserver::|probemon::stats::|"
        r"trace::EventLog::")),
    ("service", re.compile(
        r"runtime::AsyncPresenceService|runtime::AsyncControlPointBase|"
        r"AsyncSappControlPoint|AsyncDcppControlPoint")),
    ("timer wheel", re.compile(
        r"des::Scheduler::|des::WallClockTimerWheel::")),
    ("network", re.compile(
        r"net::Network::|net::\w*(Delay|Loss)\w*::")),
    ("udp", re.compile(r"runtime::AsyncUdpTransport|runtime::udp_(de|en)code")),
    ("device", re.compile(
        r"core::BasicDevice|core::BasicDcppDevice|core::BasicSappDevice|"
        r"core::DcppDevice::|core::SappDevice::")),
    ("cp core", re.compile(
        r"core::ControlPointBase|core::ProbeCycle|core::SappControlPoint|"
        r"core::DcppControlPoint|core::SappAdaptation|"
        r"core::FixedRateControlPoint")),
    ("telemetry", re.compile(r"probemon::telemetry::")),
    ("loop", re.compile(r"runtime::EventLoop::")),
]
LAYER_NAMES = [name for name, _ in LAYERS] + ["other"]
PAST = re.compile(r" \(past (.+)\)$")
UNRESOLVED = re.compile(r"^(?P<obj>.+)\+0x[0-9a-f]+ \(past (?P<sym>.+)\)$")


def parse_capture(path):
    maps, samples = [], []
    with open(path) as f:
        for line in f:
            if line.startswith("m "):
                fields = line[2:].split(None, 5)
                lo, hi = (int(x, 16) for x in fields[0].split("-"))
                name = fields[5].strip() if len(fields) > 5 else ""
                maps.append((lo, hi, int(fields[2], 16), name))
            elif line.startswith("s "):
                fields = line.split()
                samples.append((int(fields[1]),
                                [int(x, 16) for x in fields[2:]]))
    maps.sort()
    return maps, samples


def load_segments(path):
    """PT_LOAD (offset, vaddr, filesz) of an ELF64 file, or None."""
    try:
        with open(path, "rb") as f:
            head = f.read(64)
            if head[:4] != b"\x7fELF" or head[4] != 2:
                return None
            phoff = struct.unpack_from("<Q", head, 32)[0]
            phentsize, phnum = struct.unpack_from("<HH", head, 54)
            f.seek(phoff)
            table = f.read(phentsize * phnum)
    except OSError:
        return None
    segments = []
    for i in range(phnum):
        p_type, _, p_offset, p_vaddr, _, p_filesz, p_memsz, _ = \
            struct.unpack_from("<IIQQQQQQ", table, i * phentsize)
        if p_type == 1:  # PT_LOAD
            segments.append((p_offset, p_vaddr, max(p_filesz, p_memsz)))
    return segments


def load_symbols(path):
    """Sorted (start, end, name) function ranges from nm, .symtab first."""
    def run_nm(extra):
        try:
            out = subprocess.run(
                ["nm", "-C", "-S", "--defined-only", "-n"] + extra + [path],
                capture_output=True, text=True, check=False).stdout
        except OSError:
            return []
        rows = []
        for line in out.splitlines():
            m = re.match(r"^([0-9a-f]+)\s+(?:([0-9a-f]+)\s+)?([tTwWiI])\s+(.*)$",
                         line)
            if m:
                rows.append((int(m.group(1), 16),
                             int(m.group(2), 16) if m.group(2) else 0,
                             m.group(4)))
        return rows

    rows = run_nm([]) or run_nm(["-D"])
    rows.sort()
    ranges = []
    for i, (start, size, name) in enumerate(rows):
        end = start + size if size else (
            rows[i + 1][0] if i + 1 < len(rows) else start + 1)
        ranges.append((start, max(end, start + 1), name))
    return ranges


class Symbolizer:
    def __init__(self, maps):
        self.maps = maps
        self.starts = [m[0] for m in maps]
        self.segments = {}
        self.symbols = {}
        self.cache = {}

    def locate(self, addr):
        i = bisect.bisect_right(self.starts, addr) - 1
        if i < 0 or addr >= self.maps[i][1]:
            return None, None
        lo, _, offset, name = self.maps[i]
        if name == "[vdso]":
            return name, None
        if not name.startswith("/"):
            return name or "?", None
        if name not in self.segments:
            self.segments[name] = load_segments(name)
        segments = self.segments[name]
        if not segments:
            return name, None
        file_offset = offset + (addr - lo)
        for p_offset, p_vaddr, size in segments:
            if p_offset <= file_offset < p_offset + size:
                return name, p_vaddr + (file_offset - p_offset)
        return name, None

    def name(self, addr):
        if addr in self.cache:
            return self.cache[addr]
        obj, vaddr = self.locate(addr)
        if obj == "[vdso]":
            result = ("[vdso]", obj)
        elif vaddr is None:
            result = ("?", obj or "?")
        else:
            if obj not in self.symbols:
                self.symbols[obj] = load_symbols(obj)
            ranges = self.symbols[obj]
            j = bisect.bisect_right(ranges, (vaddr, float("inf"), "")) - 1
            if j >= 0 and ranges[j][0] <= vaddr < ranges[j][1]:
                result = (ranges[j][2], obj)
            else:
                result = (None, obj, vaddr)
        self.cache[addr] = result
        return result

    def resolve_missing(self):
        """addr2line for addresses no symbol table covers."""
        missing = collections.defaultdict(list)
        for addr, result in self.cache.items():
            if result[0] is None:
                missing[result[1]].append((addr, result[2]))
        for obj, items in missing.items():
            try:
                out = subprocess.run(
                    ["addr2line", "-f", "-C", "-e", obj] +
                    [hex(v) for _, v in items],
                    capture_output=True, text=True, check=False).stdout
                names = out.splitlines()[0::2]
            except OSError:
                names = []
            for k, (addr, vaddr) in enumerate(items):
                fn = names[k] if k < len(names) and names[k] != "??" else "?"
                self.cache[addr] = (
                    unresolved_label(obj, vaddr, self.symbols[obj], fn), obj)


def unresolved_label(obj, vaddr, ranges, fn):
    """The name of an address that no nm range of its object named,
    given addr2line's name `fn` for it.

    In a stripped object addr2line names the nearest preceding dynamic
    symbol whatever that symbol's size, so `fn` is kept only when an nm
    range covers the address or the object has none. Otherwise the
    label is the object's basename and the offset, past that symbol:

    >>> libc = [(0x96030, 0x96063, "__default_morecore"),
    ...         (0x98930, 0x98c47, "malloc")]
    >>> unresolved_label("/lib/libc.so.6", 0x97000, libc,
    ...                  "__default_morecore")
    'libc.so.6+0x97000 (past __default_morecore)'
    >>> unresolved_label("/lib/libc.so.6", 0x96040, libc,
    ...                  "__default_morecore")
    '__default_morecore'
    >>> unresolved_label("/usr/bin/app", 0x1234, [], "main")
    'main'
    >>> unresolved_label("/lib/libc.so.6", 0x10, libc, "?")
    'libc.so.6+0x10'

    The layer stays the named symbol's:

    >>> classify([("libc.so.6+0x9a100 (past pthread_mutex_lock)", None)])
    'mutex'
    >>> classify([("libc.so.6+0x97000 (past __default_morecore)", None),
    ...           ("probemon::stats::TimeSeries::add(double, double)",
    ...            None)])
    'observers'
    """
    if not ranges or any(lo <= vaddr < hi for lo, hi, _ in ranges):
        return fn
    label = "%s+%#x" % (os.path.basename(obj), vaddr)
    return label if fn == "?" else "%s (past %s)" % (label, fn)


def fold_unresolved(leaf):
    """Innermost-function counts with the rows of stripped code folded:
    the `obj+0x... (past SYM)` rows of one object and neighbour become
    one row, named with the number of addresses it holds. Other rows,
    an offset with no neighbour among them, stay as they are.

    >>> leaf = collections.Counter({
    ...     "libc.so.6+0x97000 (past __default_morecore)": 3,
    ...     "libc.so.6+0x97afc (past __default_morecore)": 2,
    ...     "libc.so.6+0xe1230 (past timer_settime)": 1,
    ...     "libc.so.6+0x10": 1,
    ...     "malloc": 4})
    >>> for fn, n in fold_unresolved(leaf).most_common():
    ...     print(n, fn)
    5 libc.so.6 (past __default_morecore), 2 addresses
    4 malloc
    1 libc.so.6 (past timer_settime), 1 address
    1 libc.so.6+0x10
    """
    folded = collections.Counter()
    addresses = collections.Counter()
    for fn, n in leaf.items():
        match = UNRESOLVED.match(fn)
        key = "%s (past %s)" % match.group("obj", "sym") if match else fn
        folded[key] += n
        if match:
            addresses[key] += 1
    return collections.Counter({
        ("%s, %d address%s" % (fn, addresses[fn],
                               "" if addresses[fn] == 1 else "es")
         if fn in addresses else fn): n
        for fn, n in folded.items()})


def interrupted_frame(symbolizer, frames):
    """Index of the interrupted frame, the one with an exact pc."""
    # backtrace() ran in the handler: its frames come first, then the
    # signal trampoline the handler returns through, then the
    # interrupted frame.
    first = 0
    while first < len(frames) and os.path.basename(
            symbolizer.locate(frames[first])[0] or "").startswith("sampleprof"):
        first += 1
    return first + 1  # past the trampoline


def sample_frames(symbolizer, frames):
    """(function, object) per frame, innermost first, from the
    interrupted frame outwards."""
    first = interrupted_frame(symbolizer, frames)
    # Outer frames hold return addresses: look up the call before each.
    return [symbolizer.name(addr if depth == first else addr - 1)
            for depth, addr in enumerate(frames) if depth >= first]


def run_tool(command):
    try:
        return subprocess.run(command, capture_output=True, text=True,
                              check=False).stdout
    except OSError:
        return ""


def instruction_text(obj, vaddrs):
    """vaddr -> disassembled instruction, one objdump over their span."""
    out = run_tool(["objdump", "-d", "--no-show-raw-insn", "-C",
                    "--start-address=%#x" % min(vaddrs),
                    "--stop-address=%#x" % (max(vaddrs) + 16), obj])
    text = {}
    for line in out.splitlines():
        m = re.match(r"^\s*([0-9a-f]+):\s+(.*)$", line)
        if m:
            text[int(m.group(1), 16)] = " ".join(m.group(2).split())
    return text


def source_lines(obj, vaddrs):
    """vaddr -> "file:line (innermost inlined function)" via addr2line."""
    out = run_tool(["addr2line", "-f", "-C", "-e", obj] +
                   [hex(v) for v in vaddrs]).splitlines()
    lines = {}
    for k, vaddr in enumerate(vaddrs):
        if 2 * k + 1 < len(out):
            fn, where = out[2 * k], out[2 * k + 1]
            where = os.path.basename(where.split(" ")[0])
            lines[vaddr] = "%s (%s)" % (where, fn.split("(")[0])
    return lines


def hot_instructions(symbolizer, chosen, func, total, label, top):
    """Print per-instruction sample counts of each function whose name
    contains `func`; returns the number of rows printed."""
    hits = collections.defaultdict(collections.Counter)
    for _, frames in chosen:
        first = interrupted_frame(symbolizer, frames)
        if first >= len(frames):
            continue
        addr = frames[first]
        fn = symbolizer.name(addr)[0]
        if fn and func in fn:
            obj, vaddr = symbolizer.locate(addr)
            hits[(fn, obj)][vaddr] += 1
    rows = 0
    if not hits:
        print("sampleprof: no samples of %s interrupted in %r" % (label, func),
              file=sys.stderr)
    for (fn, obj), counts in sorted(hits.items(),
                                    key=lambda kv: -sum(kv[1].values())):
        n = sum(counts.values())
        print()
        print("# hot instructions of %s (%s): %d samples, %.1f%% of the "
              "thread" % (fn[:160], label, n, 100.0 * n / total))
        vaddrs = sorted(v for v in counts if v is not None)
        if not vaddrs:
            print("(no object file to disassemble: %s)" % obj)
            continue
        text = instruction_text(obj, vaddrs)
        where = source_lines(obj, vaddrs)
        print("| address | samples | % of function | instruction | source |")
        print("|---|---|---|---|---|")
        ranked = sorted(vaddrs, key=lambda v: (-counts[v], v))
        for vaddr in ranked[:top] if top else ranked:
            print("| %#x | %d | %.1f | %s | %s |" % (
                vaddr, counts[vaddr], 100.0 * counts[vaddr] / n,
                text.get(vaddr, "?"), where.get(vaddr, "?")))
            rows += 1
    return rows


TRAILING_QUALIFIERS = re.compile(
    r"(\s*(const|volatile|noexcept|&&|&)|\s*\[clone [^]]*\]|\[abi:\w+\])+$")


def qualified_name(fn):
    """A demangled function name without its parameter list (the last
    balanced parenthesis group) and the qualifiers after it."""
    name = TRAILING_QUALIFIERS.sub("", fn)
    if not name.endswith(")"):
        return name
    depth = 0
    for i in range(len(name) - 1, -1, -1):
        if name[i] == ")":
            depth += 1
        elif name[i] == "(":
            depth -= 1
            if depth == 0:
                return name[:i]
    return name


def classify(named):
    """The layer of a sample: the first of its (function, object) frames,
    innermost first, whose qualified name matches a layer.

    >>> classify([("probemon::des::WallClockTimerWheel::now() const", None)])
    'clock'
    >>> classify([("probemon::runtime::EventLoop::now() const", None)])
    'clock'
    >>> classify([("probemon::core::SappControlPoint::delay_after_success("
    ...            "probemon::net::Message const&, double)", None)])
    'cp core'
    >>> classify([("probemon::scenario::Metrics::on_probe_sent(unsigned int,"
    ...            " unsigned int, double, unsigned int)", None)])
    'observers'
    >>> classify([("?", None), ("probemon::net::Network::send("
    ...            "probemon::net::Message)", None)])
    'network'
    """
    for fn, _ in named:
        if not fn:
            continue
        past = PAST.search(fn)
        own = qualified_name(past.group(1) if past else fn)
        for layer, pattern in LAYERS:
            if pattern.search(own):
                return layer
    return "other"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("capture", help="sampleprof.<pid>.txt")
    parser.add_argument("--tid", type=int,
                        help="thread to report (default: most samples)")
    parser.add_argument("--top", type=int, default=15,
                        help="innermost functions to list (0 = none); "
                             "with --hot, rows per function (0 = all)")
    parser.add_argument("--hot", metavar="FUNC",
                        help="per-instruction samples of the functions "
                             "whose name contains FUNC")
    args = parser.parse_args()

    maps, samples = parse_capture(args.capture)
    if not samples:
        print("sampleprof: no samples in " + args.capture, file=sys.stderr)
        return 1
    per_thread = collections.Counter(tid for tid, _ in samples)
    tid = args.tid if args.tid is not None else per_thread.most_common(1)[0][0]
    chosen = [s for s in samples if s[0] == tid]
    label = "thread %d" % tid
    if not chosen:
        print("sampleprof: no samples for " + label, file=sys.stderr)
        return 1

    symbolizer = Symbolizer(maps)
    for _, frames in chosen:  # look every frame up in the symbol tables,
        sample_frames(symbolizer, frames)
    symbolizer.resolve_missing()  # then ask addr2line for the misses
    stacks = [sample_frames(symbolizer, frames) for _, frames in chosen]

    layers = collections.Counter(classify(named) for named in stacks)
    leaf = fold_unresolved(collections.Counter(
        (named[0][0] or "?") if named else "?" for named in stacks))
    total = len(chosen)
    print("# %s: %d of %d samples (threads: %s)" % (
        label, total, len(samples),
        ", ".join("%d=%d" % kv for kv in per_thread.most_common())))
    print("| layer | samples | % |")
    print("|---|---|---|")
    for layer in LAYER_NAMES:
        n = layers.get(layer, 0)
        print("| %s | %d | %.1f |" % (layer, n, 100.0 * n / total))
    if args.top:
        print()
        print("# innermost functions (%s)" % label)
        for fn, n in leaf.most_common(args.top):
            print("%6.1f%%  %s" % (100.0 * n / total, fn[:160]))
    if args.hot is not None and not hot_instructions(
            symbolizer, chosen, args.hot, total, label, args.top):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
