#!/usr/bin/env python3
"""Fail when AVX code appears outside the AVX2 kernel variants.

    python3 tools/check_no_stray_avx.py LIBRARY [OBJDUMP]

Disassembles LIBRARY (libmdcp.a) with OBJDUMP (default: objdump on PATH)
and reports every VEX/EVEX instruction, i.e. a ymm/zmm operand or a
v-prefixed SSE/AVX mnemonic, found in a function that is not an AVX2
variant wrapper or the .cold part of one. By the convention of
src/util/isa.hpp the wrappers are the functions whose name ends in _avx2.
Such stray code would crash with SIGILL on a CPU without AVX2. It
typically comes from a translation unit compiled with -mavx2 or -march,
whose inline header functions become AVX COMDAT copies that the linker may
hand to baseline callers.

The check also fails when there are no wrappers, or when a wrapper holds no
VEX instruction: its body was then compiled as baseline code, for example
because the body was called out of line instead of inlined into it. (Wide
ymm code is not required: sanitizer builds keep the variants scalar.)

Exit status: 0 clean, 1 stray or missing AVX code, 77 no objdump (skipped).
Standard library only.
"""

import re
import shutil
import subprocess
import sys

SKIPPED = 77

# An instruction line of `objdump -d --no-show-raw-insn`: "  1f:\tvmovapd ...".
INSN = re.compile(r"^\s*[0-9a-f]+:\t(.*)$")
# A symbol line: "0000000000000040 <name>:".
SYMBOL = re.compile(r"^[0-9a-f]+ <(.+)>:$")
WIDE_REGISTER = re.compile(r"%[yz]mm\d+")
# Identifiers are length-prefixed in mangled names, so a name ending in
# _avx2 is followed by a mangling code (an upper-case letter), a clone
# suffix such as .cold, or nothing.
VARIANT = re.compile(r"_avx2(?![a-z0-9_])")
PREFIXES = {"rep", "repz", "repnz", "repe", "repne", "lock", "notrack",
            "bnd", "data16", "addr32", "cs", "ds", "es", "fs", "gs", "ss"}
# v-prefixed mnemonics that are not SSE/AVX (segment checks, VMX and SVM).
NOT_SIMD = {"verr", "verw", "vmcall", "vmlaunch", "vmresume", "vmxoff",
            "vmxon", "vmread", "vmwrite", "vmptrld", "vmptrst", "vmclear",
            "vmfunc", "vmrun", "vmload", "vmsave", "vmmcall"}


def mnemonic(text):
    for token in text.split():
        if token not in PREFIXES:
            return token
    return ""


def is_vex(text):
    if WIDE_REGISTER.search(text):
        return True
    op = mnemonic(text)
    return op.startswith("v") and op not in NOT_SIMD


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__.split("\n\n")[1])
    library = sys.argv[1]
    objdump = sys.argv[2] if len(sys.argv) == 3 and sys.argv[2] else None
    objdump = objdump or shutil.which("objdump")
    if objdump is None or shutil.which(objdump) is None:
        print("no objdump: skipped")
        return SKIPPED
    proc = subprocess.run([objdump, "-d", "--no-show-raw-insn", library],
                          stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        print("objdump failed on " + library, file=sys.stderr)
        return 1

    stray = {}     # function -> (count, first instruction)
    variants = {}  # wrapper -> VEX instruction count
    function = None
    for line in proc.stdout.splitlines():
        m = SYMBOL.match(line)
        if m:
            function = m.group(1)
            if VARIANT.search(function) and ".cold" not in function:
                variants.setdefault(function, 0)
            continue
        m = INSN.match(line)
        if not m or function is None:
            continue
        text = m.group(1)
        if VARIANT.search(function):
            if function in variants and is_vex(text):
                variants[function] += 1
        elif is_vex(text):
            count, first = stray.get(function, (0, text))
            stray[function] = (count + 1, first)

    failed = False
    for function, (count, first) in sorted(stray.items()):
        print("stray AVX: %d instruction(s) in %s, first: %s"
              % (count, function, first))
        failed = True
    if not variants:
        print("no AVX2 variant (a function named *_avx2) in " + library)
        failed = True
    for function, count in sorted(variants.items()):
        if count == 0:
            print("AVX2 variant without AVX code: " + function)
            failed = True
        else:
            print("%6d AVX instructions in %s" % (count, function))
    if failed:
        return 1
    print("no AVX code outside %d AVX2 variant(s)" % len(variants))
    return 0


if __name__ == "__main__":
    sys.exit(main())
