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
#   stream_exec.o: run_pass   -> chain*, term
#                  run_folded -> folded_loop, folded_term
#   reference.o:   chunk_f64, chunk_f32 -> chain*, ends*
#
# It also fails if a dispatch function is missing from the object, so
# a rename cannot make the check vacuous. Run `dune build` first, from
# the repository root; exits non-zero listing each offending call.
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

status=0
check "$core" "run_pass" "chain[a-z_]*|term" || status=1
check "$core" "run_folded" "folded_loop|folded_term" || status=1
check "$stencil" "chunk_f64|chunk_f32" "chain[a-z_0-9]*|ends[a-z_0-9]*" || status=1

if [ "$status" -ne 0 ]; then
  echo "check_inline: a kernel body is no longer inlined into its dispatch" >&2
  exit 1
fi
echo "check_inline: kernel bodies inlined into run_pass, run_folded, chunk_f64 and chunk_f32"
