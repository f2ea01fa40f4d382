"""Synthetic corpus generation with planted reuse.

The generator gives every function its own instruction vocabulary and a
repeated three-instruction idiom, so unrelated functions land well below
the similarity thresholds while verbatim copies match exactly.  All
call/jump targets point at a shared external symbol pool, never at
document-local names, so a copied function embeds identically wherever it
lands.
"""
from __future__ import annotations

import math
import random
from bisect import bisect
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Mapping, Sequence

from . import _gc
from .errors import ConfigError
from .interchange import BasicBlock, BinaryDocument, FunctionRecord, Instruction
from .metrics import compute_profile


_BASE_MNEMONICS = (
    "add sub adc sbb inc dec neg not and or xor mul imul div idiv "
    "shl shr sar sal rol ror rcl rcr shld shrd "
    "bt bts btr btc bsf bsr popcnt lzcnt tzcnt andn bextr blsi blsmsk blsr "
    "cmove cmovne cmovl cmovle cmovg cmovge cmova cmovae cmovb cmovbe cmovs cmovns "
    "sete setne setl setle setg setge seta setae setb setbe sets setns "
    "movsx movzx movsxd movbe xchg bswap lea cmpxchg xadd test "
    "cdq cqo cwde cbw cdqe push pop "
    "addss addsd subss subsd mulss mulsd divss divsd sqrtss sqrtsd "
    "minss minsd maxss maxsd ucomiss ucomisd cvtsi2sd cvtsd2si cvttsd2si "
    "addps addpd subps subpd mulps mulpd andps andpd orps orpd xorps xorpd "
    "maxps minps sqrtps shufps unpcklps "
    "paddb paddw paddd paddq psubb psubw psubd psubq pmulld pmullw "
    "pand pandn por pxor psllw pslld psllq psrlw psrld psrlq "
    "pcmpeqb pcmpeqd pcmpgtb pcmpgtd pminsd pmaxsd pminud pmaxud "
    "packssdw punpcklbw punpckldq pshufb pshufd pmovmskb "
    "movaps movups movdqa movdqu movq movd"
).split()

_REGISTER_POOL = (
    "rax rbx rcx rdx rsi rdi rbp rsp r8 r9 r10 r11 r12 r13 r14 r15 "
    "eax ebx ecx edx esi edi r8d r9d r10d r11d ax bx cx dx al bl cl dl "
    "xmm0 xmm1 xmm2 xmm3 xmm4 xmm5 xmm6 xmm7 xmm8 xmm9 xmm10 xmm11 "
    "xmm12 xmm13 xmm14 xmm15"
).split()

_JCC_POOL = (
    "je jne jl jle jg jge ja jae jb jbe js jns jo jno jp jnp"
).split()

_EXT_SYMBOLS = tuple("ext_%03d" % i for i in range(64))


def _synth_function(
    rng: random.Random,
    name: str,
    *,
    is_export: bool,
    blocks_range=(1, 5),
    instr_range=(3, 9),
    mnemonic_pool: Sequence[str] = None,
) -> FunctionRecord:
    """One synthetic function with its own vocabulary and repeated idiom.

    The private mnemonic/register sample keeps unrelated functions apart in
    embedding space; the repeated idiom concentrates n-gram mass the way
    real loop bodies do.
    """
    # bound once: the draws below run once per instruction
    random_, choice, randrange = rng.random, rng.choice, rng.randrange
    pool = list(mnemonic_pool) if mnemonic_pool is not None else _BASE_MNEMONICS
    regs = rng.sample(_REGISTER_POOL, rng.randint(3, 5))
    mnems = rng.sample(pool, min(len(pool), rng.randint(8, 16)))
    jccs = rng.sample(_JCC_POOL, 2)
    # cumulative, so each draw bisects without re-accumulating the weights
    shape_cum_weights = list(accumulate(rng.randint(1, 6) for _ in range(5)))
    total = shape_cum_weights[-1] + 0.0

    def make_instr() -> Instruction:
        r = random_()
        if r < 0.87:
            m = choice(mnems)
        elif r < 0.95:
            m = "mov"
        else:
            m = "cmp"
        # the one draw rng.choices(range(5), cum_weights=shape_cum_weights)
        # makes, without its per-call checks
        shape = bisect(shape_cum_weights, random_() * total, 0, 4)
        a = choice(regs)
        if shape == 0:
            ops = (a, choice(regs))
        elif shape == 1:
            ops = (a, hex(randrange(1 << 20)))
        elif shape == 2:
            ops = (a, "[%s+%s]" % (choice(regs), hex(randrange(512))))
        elif shape == 3:
            ops = ("[%s+%s]" % (choice(regs), hex(randrange(512))), a)
        else:
            ops = (a,)
        return Instruction(m, ops)

    idiom = [make_instr() for _ in range(3)]
    n_blocks = rng.randint(*blocks_range)
    blocks = []
    jcc_blocks = []
    for b in range(n_blocks):
        instrs = []
        budget = rng.randint(*instr_range)
        while budget > 0:
            if budget >= 3 and random_() < 0.4:
                instrs.extend(idiom)
                budget -= 3
            else:
                instrs.append(make_instr())
                budget -= 1
        if random_() < 0.25:
            instrs.append(Instruction("call", (choice(_EXT_SYMBOLS),)))
        if random_() < 0.6:
            instrs.append(Instruction(choice(jccs), ()))
            jcc_blocks.append(b)
        blocks.append(BasicBlock(b, instrs))
    blocks[-1].instructions.append(Instruction("ret", ()))

    edges = [(b, b + 1) for b in range(n_blocks - 1)]
    present = set(edges)
    for b in jcc_blocks:
        extra = (b, randrange(n_blocks))
        if extra not in present:
            edges.append(extra)
            present.add(extra)
    return FunctionRecord(name, ".text", is_export, blocks, edges)


def _synth_simple(rng: random.Random, name: str, *, is_export: bool) -> FunctionRecord:
    """A 1-2 instruction stub: forwarding jump, bare return, or constant
    load.  These are the filter fodder."""
    kind = rng.randrange(3)
    if kind == 0:
        instrs = [Instruction("jmp", (rng.choice(_EXT_SYMBOLS),))]
    elif kind == 1:
        instrs = [Instruction("ret", ())]
    else:
        instrs = [
            Instruction("mov", (rng.choice(_REGISTER_POOL), hex(rng.randrange(256)))),
            Instruction("ret", ()),
        ]
    return FunctionRecord(name, ".text", is_export, [BasicBlock(0, instrs)], [])


def _linkage_stubs(rng: random.Random, prefix: str) -> list:
    stubs = []
    for section in (".plt", ".init", ".fini"):
        stubs.append(
            FunctionRecord(
                "%s%s_stub" % (prefix, section.replace(".", "_")),
                section,
                False,
                [BasicBlock(0, [Instruction("jmp", (rng.choice(_EXT_SYMBOLS),))])],
                [],
            )
        )
    return stubs


@dataclass(frozen=True)
class SyntheticCorpusSpec:
    library_count: int = 10
    functions_per_library: int = 50
    clone_rate: float = 0.05
    simple_fn_rate: float = 0.3
    export_rate: float = 0.35
    planted_reuse: Mapping = field(default_factory=dict)
    distractor_functions: int = 40
    rng_seed: int = 1

    def library_ids(self):
        return ["lib%03d" % i for i in range(self.library_count)]

    def validate(self) -> None:
        if self.library_count < 1 or self.functions_per_library < 1:
            raise ConfigError("library_count and functions_per_library must be >= 1")
        for rate_name in ("clone_rate", "simple_fn_rate", "export_rate"):
            rate = getattr(self, rate_name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigError("%s must be in [0, 1]" % rate_name)
        if self.distractor_functions < 0:
            raise ConfigError("distractor_functions must be >= 0")
        known = set(self.library_ids())
        for bin_id, (libs, fraction) in self.planted_reuse.items():
            if not bin_id or bin_id in known:
                raise ConfigError("bad binary id %r" % bin_id)
            unknown = set(libs) - known
            if unknown:
                raise ConfigError(
                    "binary %r plants unknown libraries %s" % (bin_id, sorted(unknown))
                )
            if len(set(libs)) != len(list(libs)):
                raise ConfigError("binary %r lists a library twice" % bin_id)
            if libs and not 0.0 < fraction <= 1.0:
                raise ConfigError("binary %r has reuse fraction outside (0, 1]" % bin_id)


def random_reuse_plan(
    rng: random.Random,
    binary_ids: Sequence[str],
    library_ids: Sequence[str],
    *,
    min_libs: int = 1,
    max_libs: int = 3,
    min_fraction: float = 0.3,
    max_fraction: float = 1.0,
) -> dict:
    """Deterministic random plan: each binary reuses min..max libraries at
    one uniform fraction."""
    if not library_ids or not 0 <= min_libs <= min(max_libs, len(library_ids)):
        raise ConfigError("min_libs must be in [0, min(max_libs, %d libraries)]"
                          % len(library_ids))
    if not 0.0 < min_fraction <= max_fraction <= 1.0:
        raise ConfigError("reuse fractions must satisfy 0 < min_fraction <= max_fraction <= 1")
    plan = {}
    for bin_id in binary_ids:
        k = rng.randint(min_libs, min(max_libs, len(library_ids)))
        libs = sorted(rng.sample(list(library_ids), k))
        plan[bin_id] = (libs, rng.uniform(min_fraction, max_fraction))
    return plan


def _api_first(functions: Sequence[FunctionRecord]) -> list:
    """Exported-first, then most complex first: the order in which a
    partial reuser would plausibly pull functions in."""
    keyed = [
        (not fn.is_export, compute_profile(fn).mi, fn.name, fn) for fn in functions
    ]
    keyed.sort(key=lambda t: t[:3])
    return [t[3] for t in keyed]


@_gc.paused()
def generate_corpus(spec: SyntheticCorpusSpec):
    """(tpl documents, target documents, manifest), fully determined by the
    spec's seed.  Cyclic GC is paused while the documents are built.

    Every planted (binary, library) pair receives at least
    ceil(fraction * |library|) verbatim function copies, taken API-first.
    Clones are verbatim copies pushed into other libraries under new names;
    every document also gets .plt/.init/.fini stubs so section filtering
    has something to chew on.
    """
    spec.validate()
    rng = random.Random(spec.rng_seed)
    lib_ids = spec.library_ids()

    bodies = {}
    for lib in lib_ids:
        n = spec.functions_per_library
        n_simple = min(n - 1, round(spec.simple_fn_rate * n)) if n > 1 else 0
        n_flag = max(1, min(n - n_simple, max(2, n // 12)))
        n_regular = n - n_simple - n_flag
        kinds = ["flag"] * n_flag + ["regular"] * n_regular + ["simple"] * n_simple
        rng.shuffle(kinds)
        fns = []
        for k, kind in enumerate(kinds):
            name = "%s_fn%04d" % (lib, k)
            if kind == "flag":
                fns.append(
                    _synth_function(
                        rng, name, is_export=True,
                        blocks_range=(6, 10), instr_range=(8, 14),
                    )
                )
            elif kind == "regular":
                fns.append(
                    _synth_function(
                        rng, name, is_export=rng.random() < spec.export_rate
                    )
                )
            else:
                fns.append(
                    _synth_simple(rng, name, is_export=rng.random() < spec.export_rate)
                )
        bodies[lib] = fns

    # verbatim cross-library clones, spread cyclically so no destination
    # pair stacks up
    if len(lib_ids) > 1:
        clone_count = round(spec.clone_rate * spec.functions_per_library)
        for i, lib in enumerate(lib_ids):
            if not clone_count:
                break
            others = lib_ids[i + 1 :] + lib_ids[:i]
            picks = sorted(rng.sample(range(spec.functions_per_library), clone_count))
            for c, idx in enumerate(picks):
                src = bodies[lib][idx]
                dst = others[c % len(others)]
                bodies[dst].append(
                    FunctionRecord(
                        "%s_clone_%s" % (dst, src.name),
                        src.section,
                        src.is_export,
                        src.blocks,
                        src.edges,
                    )
                )

    tpl_docs = [
        BinaryDocument(lib, "tpl", list(bodies[lib]) + _linkage_stubs(rng, lib))
        for lib in lib_ids
    ]

    # only a planted library is ever copied from; ordered here, before the
    # targets, so the profiles' temporaries are freed before targets exist
    planted = {lib for libs, _ in spec.planted_reuse.values() for lib in libs}
    ordered = {lib: _api_first(bodies[lib]) for lib in lib_ids if lib in planted}
    target_docs = []
    manifest = {}
    for bin_id, (libs, fraction) in spec.planted_reuse.items():
        fns = []
        for lib in libs:
            pool = ordered[lib]
            fns.extend(pool[: math.ceil(fraction * len(pool))])
        nd = spec.distractor_functions
        n_simple = round(spec.simple_fn_rate * nd)
        kinds = ["simple"] * n_simple + ["regular"] * (nd - n_simple)
        rng.shuffle(kinds)
        for k, kind in enumerate(kinds):
            name = "%s_fn%04d" % (bin_id, k)
            if kind == "simple":
                fns.append(_synth_simple(rng, name, is_export=False))
            else:
                fns.append(_synth_function(rng, name, is_export=False))
        target_docs.append(
            BinaryDocument(bin_id, "target", fns + _linkage_stubs(rng, bin_id))
        )
        manifest[bin_id] = set(libs)
    return tpl_docs, target_docs, manifest
