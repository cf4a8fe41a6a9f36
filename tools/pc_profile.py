#!/usr/bin/env python3
"""Resolve tools/pc_sample.c samples to repository files and functions.

Each sampled PC is resolved with `addr2line -a -i -f -C` and charged to the
innermost repository frame of its inline chain, so library code inlined
into a repository function (a std::vector access, an inlined std::sort)
counts there. A PC whose chain has no repository frame is charged to its
innermost function under "(outside)" for the executable, or under the
library's file name (libc.so.6, libstdc++.so.6) for a shared library;
one in a kernel-provided mapping ([vdso]: clock reads) under that name.

Build the profiled program with -g so addr2line can name files and lines.

Usage:  pc_profile.py SAMPLES [--root DIR]
Prints two tables, shares by file and by the TOP_FUNCTIONS busiest
functions, and exits 1 when no sample was recorded.
"""

import argparse
import collections
import os
import struct
import subprocess
import sys

TOP_FUNCTIONS = 25


def parse_samples(path):
    maps, pcs, header = [], collections.Counter(), ""
    with open(path) as f:
        for line in f:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "#":
                header = line.strip()
            elif parts[0] == "map":
                start, end, offset = (int(x, 16) for x in parts[1:4])
                maps.append((start, end, offset, " ".join(parts[4:])))
            elif parts[0] == "pc":
                pcs[int(parts[1], 16)] += int(parts[2])
    return header, maps, pcs


def load_segments(path):
    """(p_offset, p_vaddr, p_filesz) of every PT_LOAD in a 64-bit ELF file."""
    with open(path, "rb") as f:
        ident = f.read(64)
        if ident[:4] != b"\x7fELF" or ident[4] != 2:
            return []
        endian = "<" if ident[5] == 1 else ">"
        phoff, = struct.unpack_from(endian + "Q", ident, 32)
        phentsize, phnum = struct.unpack_from(endian + "HH", ident, 54)
        f.seek(phoff)
        table = f.read(phentsize * phnum)
    segments = []
    for i in range(phnum):
        p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack_from(
            endian + "IIQQQQ", table, i * phentsize)
        if p_type == 1:  # PT_LOAD
            segments.append((p_offset, p_vaddr, p_filesz))
    return segments


def file_address(pc, mapping, segments):
    """The link-time address of `pc` inside the mapped ELF file."""
    start, _, offset, _ = mapping
    file_offset = pc - start + offset
    for p_offset, p_vaddr, p_filesz in segments:
        if p_offset <= file_offset < p_offset + p_filesz:
            return file_offset - p_offset + p_vaddr
    return file_offset


def resolve(binary, addresses):
    """{address: [(function, file), ...]} innermost frame first."""
    frames = {}
    if not addresses:
        return frames
    out = subprocess.run(
        ["addr2line", "-a", "-i", "-f", "-C", "-e", binary]
        + ["0x%x" % a for a in addresses],
        check=True, capture_output=True, text=True).stdout.splitlines()
    current, i = None, 0
    while i < len(out):
        if out[i].startswith("0x"):  # -a: the address opens each record
            current = int(out[i], 16)
            frames[current] = []
            i += 1
        elif i + 1 < len(out):
            function, location = out[i], out[i + 1]
            frames[current].append((function, location.rsplit(":", 1)[0]))
            i += 2
        else:
            break
    return frames


def in_repository(location, root):
    return os.path.isabs(location) and \
        os.path.realpath(location).startswith(root)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("samples")
    p.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: this script's repository)")
    args = p.parse_args()
    root = os.path.realpath(args.root) + os.sep

    header, maps, pcs = parse_samples(args.samples)
    total = sum(pcs.values())
    if total == 0:
        print("pc_profile: no samples in %s" % args.samples, file=sys.stderr)
        return 1

    by_mapping = collections.defaultdict(list)
    unmapped = 0
    for pc, count in pcs.items():
        mapping = next((m for m in maps if m[0] <= pc < m[1]), None)
        if mapping is None:
            unmapped += count
        else:
            by_mapping[mapping].append((pc, count))

    by_file = collections.Counter()
    by_function = collections.Counter()
    for mapping, samples in by_mapping.items():
        binary = mapping[3]
        if not binary.startswith("/"):  # [vdso] and other pseudo-files
            for _, count in samples:
                by_file[binary] += count
                by_function[("??", binary)] += count
            continue
        segments = load_segments(binary)
        addresses = {pc: file_address(pc, mapping, segments)
                     for pc, _ in samples}
        frames = resolve(binary, sorted(set(addresses.values())))
        for pc, count in samples:
            chain = frames.get(addresses[pc], [])
            repo = next(((fn, loc) for fn, loc in chain
                         if in_repository(loc, root)), None)
            if repo is not None:
                where = os.path.relpath(os.path.realpath(repo[1]), root)
                function = repo[0]
            else:
                name = os.path.basename(binary)
                where = name if ".so" in name else "(outside)"
                function = chain[0][0] if chain else "??"
            by_file[where] += count
            by_function[(function, where)] += count
    if unmapped:
        by_file["(unmapped)"] += unmapped
        by_function[("??", "(unmapped)")] += unmapped

    print(header)
    print("%d samples" % total)
    print()
    print("| file | share | samples |")
    print("|---|---|---|")
    for where, count in by_file.most_common():
        print("| %s | %.3f | %d |" % (where, count / total, count))
    print()
    print("| function | file | share | samples |")
    print("|---|---|---|---|")
    for (function, where), count in by_function.most_common(TOP_FUNCTIONS):
        print("| `%s` | %s | %.3f | %d |" % (function.replace("|", "\\|"),
                                             where, count / total, count))
    return 0


if __name__ == "__main__":
    sys.exit(main())
