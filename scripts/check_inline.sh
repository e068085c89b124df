#!/bin/sh
# Kernel inlining hygiene: the streaming kernels and the reference's
# chunk loops get their speed from [@inline] bodies whose labelled
# arguments are literals at each call site, so ocamlopt folds every
# flag test out of the cell loop. When a body stops being inlined —
# ocamlopt without flambda silently refuses to inline a body that
# binds a local closure, for one — the dispatch functions call one
# generic loop instead, every test still passes, and the kernels run
# several times slower. This check disassembles the built objects and
# fails if a dispatch function carries a relocation (a call, a jump or
# a closure reference) to one of the bodies it must inline:
#
#   stream_exec.o: run_pass   -> chain*, term, add, put
#                  run_folded -> folded_loop, folded_term
#   reference.o:   chunk_f64, chunk_f32 -> chain*, ends*, mac*, put*, ld32
#
# It also fails if a dispatch function is missing from the object, so
# a rename cannot make the check vacuous.
#
# The cell loops take several consecutive cells per iteration and bind
# each term's index once, so one index register serves every lane's
# read at displacements one word apart. A lane written with its index
# in full ([b + t + 1]) recomputes the index per read, every test
# still passes and the gain silently vanishes. So each of run_pass,
# chunk_f64 and chunk_f32 must hold two reads — [mulsd] from memory,
# or for chunk_f32 the widening [cvtss2sd] loads — through the same
# base and index registers, with neither written in between, whose
# displacements differ by one element.
#
# Run `dune build` first, from the repository root; exits non-zero
# listing each offending call or function.
set -eu

cd "$(dirname "$0")/.."

core=_build/default/lib/core/.an5d_core.objs/native/an5d_core__Stream_exec.o
stencil=_build/default/lib/stencil/.stencil.objs/native/stencil__Reference.o

command -v objdump >/dev/null 2>&1 || {
  echo "check_inline: objdump not found on PATH" >&2
  exit 1
}

# check OBJECT DISPATCH_REGEX BODY_REGEX: for every function of OBJECT
# whose name matches DISPATCH_REGEX, print each relocation whose
# target matches BODY_REGEX; fail if none matched DISPATCH_REGEX.
# OCaml names a function Module.name_NNN (Module__name_NNN before 5.0).
check() {
  obj=$1
  dispatch=$2
  bodies=$3
  if [ ! -f "$obj" ]; then
    echo "check_inline: $obj not built (run dune build first)" >&2
    return 1
  fi
  objdump -dr "$obj" | awk -v dispatch="[._](${dispatch})_[0-9]+>:\$" \
    -v bodies="[._](${bodies})_[0-9]+" -v obj="$obj" '
    /^[0-9a-f]+ <.*>:$/ { fn = ""; if ($0 ~ dispatch) { fn = $2; gsub(/[<>:]/, "", fn); seen++ } next }
    fn != "" && /R_[A-Z0-9_]+/ && $NF ~ bodies {
      target = $NF
      sub(/[-+]0x[0-9a-f]+$/, "", target)
      if (!((fn, target) in shown)) {
        print "check_inline: " obj ": " fn " references " target " (not inlined)" > "/dev/stderr"
        shown[fn, target] = 1
      }
      bad++
    }
    END {
      if (seen == 0) {
        print "check_inline: " obj ": no function matches " dispatch > "/dev/stderr"
        exit 1
      }
      exit (bad > 0)
    }'
}

# shared OBJECT DISPATCH_REGEX READ: fail unless every function of
# OBJECT whose name matches DISPATCH_REGEX holds two READ instructions
# whose memory operands disp(base,index,scale) share base and index
# registers, neither written between the two, with displacements one
# element apart. An OCaml int is tagged (2n + 1), so an element is
# 2*scale bytes. A register is written when it is an instruction's
# last operand (AT&T order) or by any call.
shared() {
  obj=$1
  dispatch=$2
  read=$3
  objdump -d --no-show-raw-insn "$obj" | awk -v dispatch="[._](${dispatch})_[0-9]+>:\$" \
    -v read="$read" -v obj="$obj" '
    function hex(h,   v, i, neg) {
      neg = (substr(h, 1, 1) == "-")
      if (neg) h = substr(h, 2)
      h = substr(h, 3)
      v = 0
      for (i = 1; i <= length(h); i++) v = v * 16 + index("0123456789abcdef", substr(h, i, 1)) - 1
      return neg ? -v : v
    }
    # A register'"'"'s 64-bit name, so %eax and %rax are one register.
    function reg(r) {
      if (r ~ /^e[a-z][a-z]$/) return "r" substr(r, 2)
      sub(/[dwb]$/, "", r)
      return r
    }
    function finish() {
      if (fn != "" && !ok) {
        print "check_inline: " obj ": " fn " has no two " read " reads one element apart through one index register" > "/dev/stderr"
        bad++
      }
    }
    /^[0-9a-f]+ <.*>:$/ {
      finish()
      fn = ""; ok = 0
      if ($0 ~ dispatch) { fn = $2; gsub(/[<>:]/, "", fn); seen++ }
      split("", gen); split("", reads); calls = 0
      next
    }
    fn == "" { next }
    {
      line = $0
      sub(/^ *[0-9a-f]+:[ \t]*/, "", line)
      op = line; sub(/[ \t].*$/, "", op)
      args = substr(line, length(op) + 1); gsub(/^[ \t]+|[ \t]+$/, "", args)
      if (op == read && match(args, /^-?(0x[0-9a-f]+)?\(%[a-z0-9]+,%[a-z0-9]+,[1248]\)/)) {
        m = substr(args, RSTART, RLENGTH)
        p = index(m, "(")
        d = (p > 1) ? hex(substr(m, 1, p - 1)) : 0
        split(substr(m, p + 1, length(m) - p - 1), r, ",")
        b = reg(substr(r[1], 2)); x = reg(substr(r[2], 2)); word = 2 * r[3]
        key = b SUBSEP x SUBSEP r[3] SUBSEP gen[b] SUBSEP gen[x] SUBSEP calls
        if (((key, d - word) in reads) || ((key, d + word) in reads)) ok = 1
        reads[key, d] = 1
      }
      if (op ~ /^call/) calls++
      if (match(args, /%[a-z0-9]+$/)) gen[reg(substr(args, RSTART + 1))]++
    }
    END {
      finish()
      if (seen == 0) {
        print "check_inline: " obj ": no function matches " dispatch > "/dev/stderr"
        exit 1
      }
      exit (bad > 0)
    }'
}

status=0
check "$core" "run_pass" "chain[a-z_]*|term|add|put" || status=1
check "$core" "run_folded" "folded_loop|folded_term" || status=1
check "$stencil" "chunk_f64|chunk_f32" "chain[a-z_0-9]*|ends[a-z_0-9]*|mac[0-9]*|put[0-9]*|ld32" || status=1

if [ "$status" -ne 0 ]; then
  echo "check_inline: a kernel body is no longer inlined into its dispatch" >&2
  exit 1
fi
shared "$core" "run_pass" mulsd || status=1
shared "$stencil" "chunk_f64" mulsd || status=1
shared "$stencil" "chunk_f32" cvtss2sd || status=1
if [ "$status" -ne 0 ]; then
  echo "check_inline: a cell loop no longer shares one index between its lanes" >&2
  exit 1
fi
echo "check_inline: kernel bodies inlined into run_pass, run_folded, chunk_f64 and chunk_f32;"
echo "check_inline: run_pass, chunk_f64 and chunk_f32 read several lanes through one index"
