//! Per-block common-subexpression elimination and local copy propagation.
//!
//! Classic local value numbering over the pure instructions: two
//! instructions in one block computing the same operation over the same
//! operands share one register. Local slots get copy propagation on top:
//! after `SetLocal s, v` a following `GetLocal s` in the same block is an
//! alias of `v` (SkelCL C has no address-of and no private arrays, so local
//! slots cannot alias memory — only another `SetLocal` invalidates them).
//! Memory loads are never value-numbered: a store or barrier in between may
//! change the loaded value.

use std::hash::{Hash, Hasher};

use crate::builtins::Builtin;
use crate::hir::{BinOp, CmpOp, UnOp};
use crate::mir::{Inst, MirFunction, VReg};
use crate::types::ScalarType;
use crate::value::Value;

use super::UnitInfo;

/// Hashable identity of a value (bit-exact for floats).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ValueKey {
    Int(u8, i64),
    F32(u32),
    F64(u64),
    Bool(bool),
    Ptr(u8, u32, i64),
}

fn value_key(v: Value) -> ValueKey {
    match v {
        Value::Bool(b) => ValueKey::Bool(b),
        Value::F32(x) => ValueKey::F32(x.to_bits()),
        Value::F64(x) => ValueKey::F64(x.to_bits()),
        Value::Ptr(p) => ValueKey::Ptr(p.space as u8, p.buffer, p.byte_offset),
        other => ValueKey::Int(
            other.scalar_type().map(|t| t as u8).unwrap_or(u8::MAX),
            other.as_i64(),
        ),
    }
}

/// Value number of one pure computation; calls add their argument list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Key {
    Const(ValueKey),
    Un(UnOp, VReg),
    Bin(BinOp, VReg, VReg),
    Cmp(CmpOp, VReg, VReg),
    Convert(ScalarType, VReg),
    ToBool(VReg),
    CallPure(Builtin),
    /// Call of a strictly pure user function (see [`UnitInfo`]).
    Call(u16),
    WorkItem(Builtin, Option<VReg>),
    PtrOffset(u32, VReg, VReg),
    PtrDiff(u32, VReg, VReg),
}

/// The value number of `inst` with its call arguments, or `None` for what
/// is never value-numbered: loads, stores, impure calls, barriers, locals.
fn key<'a>(inst: &'a Inst, info: &UnitInfo) -> Option<(Key, &'a [VReg])> {
    let key = match inst {
        Inst::Const { value, .. } => Key::Const(value_key(*value)),
        Inst::Un { op, src, .. } => Key::Un(*op, *src),
        Inst::Bin { op, lhs, rhs, .. } => Key::Bin(*op, *lhs, *rhs),
        Inst::Cmp { op, lhs, rhs, .. } => Key::Cmp(*op, *lhs, *rhs),
        Inst::Convert { to, src, .. } => Key::Convert(*to, *src),
        Inst::ToBool { src, .. } => Key::ToBool(*src),
        Inst::CallPure { builtin, args, .. } => return Some((Key::CallPure(*builtin), args)),
        Inst::Call {
            dst: Some(_),
            func,
            args,
            ..
        } if info.is_pure(*func) => return Some((Key::Call(*func), args)),
        Inst::WorkItem { builtin, dim, .. } => Key::WorkItem(*builtin, *dim),
        Inst::PtrOffset {
            size, ptr, count, ..
        } => Key::PtrOffset(*size, *ptr, *count),
        Inst::PtrDiff { size, lhs, rhs, .. } => Key::PtrDiff(*size, *lhs, *rhs),
        _ => return None,
    };
    Some((key, &[]))
}

/// The rustc "Fx" hash: one rotate, xor and multiply per word. Keys are a
/// few small integers, for which it is many times faster than SipHash.
#[derive(Default)]
struct FxHasher(u64);

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.add(b.into()));
    }

    fn write_u32(&mut self, i: u32) {
        self.add(i.into());
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Marks a register with no replacement.
const NONE: u32 = u32::MAX;

/// The pass's tables, reused across runs.
#[derive(Debug, Default)]
pub(crate) struct Tables {
    /// `replace[v]`: the surviving equivalent of a dropped def, or `NONE`.
    replace: Vec<u32>,
    /// `local[slot]`: (block stamp, register the slot holds in it).
    local: Vec<(u32, VReg)>,
    /// Open-addressing table of (hash, 1 + index of the kept instruction).
    table: Vec<(u64, u32)>,
}

fn resolve(replace: &[u32], mut v: VReg) -> VReg {
    while replace[v.0 as usize] != NONE {
        v = VReg(replace[v.0 as usize]);
    }
    v
}

/// Runs the pass over every block of `f`.
pub(crate) fn run(f: &mut MirFunction, info: &UnitInfo, t: &mut Tables) {
    t.replace.clear();
    t.replace.resize(f.vreg_count as usize, NONE);
    t.local.clear();
    t.local.resize(f.local_init.len(), (0, VReg(0)));
    let mut replaced = false;
    for (stamp, b) in (1..).zip(&mut f.blocks) {
        let cap = (2 * b.insts.len()).next_power_of_two().max(8);
        t.table.clear();
        t.table.resize(cap, (0, 0));
        // Compact the kept instructions in place: `w` trails `r`.
        let mut w = 0;
        for r in 0..b.insts.len() {
            let mut inst = std::mem::replace(&mut b.insts[r], Inst::Barrier { id: 0 });
            inst.for_each_use_mut(|u| *u = resolve(&t.replace, *u));
            match inst {
                Inst::GetLocal { dst, slot } => match t.local[slot as usize] {
                    // Drop the redundant read.
                    (s, v) if s == stamp => {
                        t.replace[dst.0 as usize] = v.0;
                        replaced = true;
                        continue;
                    }
                    _ => t.local[slot as usize] = (stamp, dst),
                },
                Inst::SetLocal { slot, src } => {
                    if t.local[slot as usize] == (stamp, src) {
                        continue; // re-storing the value the slot holds
                    }
                    t.local[slot as usize] = (stamp, src);
                }
                _ => {
                    if let (Some((k, args)), Some(dst)) = (key(&inst, info), inst.dst()) {
                        let mut h = FxHasher::default();
                        (k, args).hash(&mut h);
                        let hash = h.finish();
                        let mask = cap - 1;
                        let mut i = (hash >> 40) as usize & mask;
                        loop {
                            match t.table[i] {
                                (_, 0) => {
                                    t.table[i] = (hash, w as u32 + 1);
                                    break;
                                }
                                (th, j)
                                    if th == hash
                                        && key(&b.insts[j as usize - 1], info)
                                            == Some((k, args)) =>
                                {
                                    // Drop the duplicate computation.
                                    let prev = b.insts[j as usize - 1].dst().expect("numbered");
                                    t.replace[dst.0 as usize] = prev.0;
                                    replaced = true;
                                    break;
                                }
                                _ => i = (i + 1) & mask,
                            }
                        }
                        if t.replace[dst.0 as usize] != NONE {
                            continue;
                        }
                    }
                }
            }
            b.insts[w] = inst;
            w += 1;
        }
        b.insts.truncate(w);
    }

    // Rewrite any remaining uses (later blocks reference registers whose
    // defs were dropped above; the surviving def is earlier in the same
    // block, so it dominates every rewritten use).
    if replaced {
        for b in &mut f.blocks {
            for inst in &mut b.insts {
                inst.for_each_use_mut(|u| *u = resolve(&t.replace, *u));
            }
            b.term.for_each_use_mut(|u| *u = resolve(&t.replace, *u));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mir::lower_unit;

    fn lowered(src: &str) -> MirFunction {
        let f = crate::SourceFile::new("t.cl", src);
        let mut d = crate::diag::Diagnostics::new();
        let tu = crate::parser::parse(&f, &mut d);
        let unit = crate::sema::analyze(&tu, &mut d).unwrap_or_else(|| panic!("{}", d.render(&f)));
        let mut mf = lower_unit(&unit).functions.remove(0);
        crate::cfg::simplify(&mut mf);
        mf
    }

    fn run(f: &mut MirFunction) {
        super::run(f, &UnitInfo::opaque(), &mut Tables::default());
    }

    fn count(f: &MirFunction, pred: impl Fn(&Inst) -> bool) -> usize {
        f.blocks
            .iter()
            .flat_map(|b| b.insts.iter())
            .filter(|i| pred(i))
            .count()
    }

    #[test]
    fn duplicate_binary_ops_share_a_register() {
        let mut f = lowered("int f(int a, int b){ return (a + b) * (a + b); }");
        let before = count(&f, |i| matches!(i, Inst::Bin { op: BinOp::Add, .. }));
        assert_eq!(before, 2);
        run(&mut f);
        assert_eq!(
            count(&f, |i| matches!(i, Inst::Bin { op: BinOp::Add, .. })),
            1
        );
    }

    #[test]
    fn repeated_local_reads_collapse() {
        let mut f = lowered("int f(int a){ return a + a; }");
        run(&mut f);
        assert_eq!(count(&f, |i| matches!(i, Inst::GetLocal { .. })), 1);
    }

    #[test]
    fn store_then_load_copy_propagates() {
        let mut f = lowered("int f(int a){ int t = a * 2; return t + 1; }");
        run(&mut f);
        // The GetLocal of `t` right after its SetLocal is gone.
        assert_eq!(count(&f, |i| matches!(i, Inst::GetLocal { .. })), 1);
    }

    #[test]
    fn loads_are_not_merged() {
        let mut f = lowered("float f(__global float* p){ return p[0] + p[0]; }");
        run(&mut f);
        // Two loads stay (a store from another work-item could intervene),
        // but the address computation is shared.
        assert_eq!(count(&f, |i| matches!(i, Inst::LoadMem { .. })), 2);
        assert_eq!(count(&f, |i| matches!(i, Inst::PtrOffset { .. })), 1);
    }

    #[test]
    fn duplicate_pure_calls_merge() {
        let src = "int coef(int d){
                int a = d < 0 ? -d : d;
                return a == 0 ? 6 : (a == 1 ? 4 : 1);
            }
            int f(int x){ return coef(x) * coef(x); }";
        let fsrc = crate::SourceFile::new("t.cl", src);
        let mut d = crate::diag::Diagnostics::new();
        let tu = crate::parser::parse(&fsrc, &mut d);
        let unit =
            crate::sema::analyze(&tu, &mut d).unwrap_or_else(|| panic!("{}", d.render(&fsrc)));
        let mut m = lower_unit(&unit);
        let info = UnitInfo::analyze(&m);
        let mut f = m.functions.remove(1);
        crate::cfg::simplify(&mut f);
        assert_eq!(count(&f, |i| matches!(i, Inst::Call { .. })), 2);
        super::run(&mut f, &info, &mut Tables::default());
        assert_eq!(
            count(&f, |i| matches!(i, Inst::Call { .. })),
            1,
            "identical pure calls share one register"
        );
    }

    #[test]
    fn duplicate_constants_merge() {
        let mut f = lowered("int f(int a){ return (a + 7) * (a + 7); }");
        run(&mut f);
        assert_eq!(count(&f, |i| matches!(i, Inst::Const { .. })), 1);
    }
}
