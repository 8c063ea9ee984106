//! Function inlining over the typed HIR.
//!
//! Vendor OpenCL compilers inline (nearly) everything — OpenCL C even
//! forbids recursion to make that possible. This pass reproduces the
//! first-order effect for the cost model: small helper functions (notably
//! the `get()` accessors SkelCL generates for `MapOverlap`, and
//! `fetch_clamped`-style helpers in hand-written kernels) stop paying a
//! call-frame per invocation.
//!
//! A function is inlinable when its body is a (possibly empty) sequence of
//! single-use local initialisations followed by exactly one `return expr;`,
//! with no control flow, no assignments to parameters, and no side effects
//! other than loads and diverging traps. At a call site, substitution only
//! happens when it cannot duplicate work: an argument/local may be
//! referenced more than once only if it is a constant or a plain local
//! read.

use std::collections::HashMap;

use crate::hir::{Expr, FuncId, Function, LocalId, Place, Stmt, Unit};

/// Maximum number of fix-point passes (call chains are short; recursion is
/// rejected by sema).
const MAX_PASSES: usize = 8;

/// Inlines eligible calls everywhere in `unit`, repeatedly, until a fixed
/// point (bounded). Unused helper functions are kept — they are small and
/// the kernel table indexes by position.
pub fn inline_unit(unit: &mut Unit) {
    for _ in 0..MAX_PASSES {
        let templates = collect_templates(unit);
        if templates.is_empty() {
            return;
        }
        let mut changed = false;
        for f in &mut unit.functions {
            for s in &mut f.body {
                changed |= inline_stmt(s, &templates);
            }
        }
        if !changed {
            return;
        }
    }
}

/// An inlinable function body: local initialisers and the result.
#[derive(Debug, Clone)]
struct Template {
    param_count: usize,
    /// `(local, initialiser)` pairs in evaluation order.
    lets: Vec<(LocalId, Expr)>,
    result: Expr,
}

fn collect_templates(unit: &Unit) -> HashMap<FuncId, Template> {
    let mut out = HashMap::new();
    for (i, f) in unit.functions.iter().enumerate() {
        if f.is_kernel {
            continue;
        }
        if let Some(t) = template_of(f) {
            out.insert(FuncId(i as u32), t);
        }
    }
    out
}

/// Extracts a template when the body has the `let*; return e` shape.
fn template_of(f: &Function) -> Option<Template> {
    let (last, init) = f.body.split_last()?;
    let mut lets = Vec::with_capacity(init.len());
    for s in init {
        match s {
            // Sema lowers `T x = e;` to `Expr(Assign{Local(x), e})`.
            Stmt::Expr(Expr::Assign {
                place: Place::Local(id),
                value,
                ..
            }) if id.0 as usize >= f.param_count => {
                if !expr_is_inline_safe(value) {
                    return None;
                }
                lets.push((*id, (**value).clone()));
            }
            _ => return None,
        }
    }
    let Stmt::Return(Some(result)) = last else {
        return None;
    };
    if !expr_is_inline_safe(result) {
        return None;
    }
    // Every let-bound local must be referenced at most once across the
    // remaining initialisers and the result, unless its initialiser is
    // trivially duplicable.
    for (idx, (id, init_expr)) in lets.iter().enumerate() {
        if is_duplicable(init_expr) {
            continue;
        }
        let mut uses = 0usize;
        for (_, later) in &lets[idx + 1..] {
            uses += count_local_uses(later, *id);
        }
        uses += count_local_uses(result, *id);
        if uses > 1 {
            return None;
        }
    }
    Some(Template {
        param_count: f.param_count,
        lets,
        result: result.clone(),
    })
}

/// Whether an expression may be inlined at all: pure except for loads,
/// pointer math, pure builtins and diverging traps. `Assign`, `IncDec`,
/// barriers and nested non-inlined calls are rejected (calls found here
/// may themselves be inlined on a later fix-point pass).
fn expr_is_inline_safe(e: &Expr) -> bool {
    use crate::builtins::BuiltinKind;
    match e {
        Expr::Const { .. } | Expr::Local { .. } => true,
        Expr::Unary { expr, .. } | Expr::Convert { expr, .. } => expr_is_inline_safe(expr),
        Expr::Binary { lhs, rhs, .. }
        | Expr::Compare { lhs, rhs, .. }
        | Expr::Logical { lhs, rhs, .. }
        | Expr::PtrDiff { lhs, rhs, .. } => expr_is_inline_safe(lhs) && expr_is_inline_safe(rhs),
        Expr::Ternary {
            cond,
            then_expr,
            else_expr,
            ..
        } => {
            expr_is_inline_safe(cond)
                && expr_is_inline_safe(then_expr)
                && expr_is_inline_safe(else_expr)
        }
        Expr::PtrOffset { ptr, offset, .. } => {
            expr_is_inline_safe(ptr) && expr_is_inline_safe(offset)
        }
        Expr::Load { ptr, .. } => expr_is_inline_safe(ptr),
        Expr::BuiltinCall { builtin, args, .. } => {
            matches!(
                builtin.kind(),
                BuiltinKind::FloatUnary
                    | BuiltinKind::FloatBinary
                    | BuiltinKind::GenUnary
                    | BuiltinKind::GenBinary
                    | BuiltinKind::GenTernary
                    | BuiltinKind::TrapValue
                    | BuiltinKind::WorkItemQuery
                    | BuiltinKind::WorkDim
            ) && args.iter().all(expr_is_inline_safe)
        }
        Expr::Call { .. } | Expr::Assign { .. } | Expr::IncDec { .. } => false,
    }
}

/// Whether duplicating the expression is (nearly) free and effect-less:
/// constants, plain local reads, and cheap unary wrappers around them
/// (negated literals, casts of locals).
fn is_duplicable(e: &Expr) -> bool {
    match e {
        Expr::Const { .. } | Expr::Local { .. } => true,
        Expr::Unary { expr, .. } | Expr::Convert { expr, .. } => is_duplicable(expr),
        _ => false,
    }
}

fn count_local_uses(e: &Expr, id: LocalId) -> usize {
    let mut n = 0;
    visit(e, &mut |x| {
        if let Expr::Local { id: i, .. } = x {
            if *i == id {
                n += 1;
            }
        }
    });
    n
}

fn visit(e: &Expr, f: &mut impl FnMut(&Expr)) {
    f(e);
    match e {
        Expr::Unary { expr, .. } | Expr::Convert { expr, .. } => visit(expr, f),
        Expr::Binary { lhs, rhs, .. }
        | Expr::Compare { lhs, rhs, .. }
        | Expr::Logical { lhs, rhs, .. }
        | Expr::PtrDiff { lhs, rhs, .. } => {
            visit(lhs, f);
            visit(rhs, f);
        }
        Expr::Ternary {
            cond,
            then_expr,
            else_expr,
            ..
        } => {
            visit(cond, f);
            visit(then_expr, f);
            visit(else_expr, f);
        }
        Expr::Assign { place, value, .. } => {
            if let Place::Deref { ptr, .. } = place {
                visit(ptr, f);
            }
            visit(value, f);
        }
        Expr::IncDec { place, .. } => {
            if let Place::Deref { ptr, .. } = place {
                visit(ptr, f);
            }
        }
        Expr::Call { args, .. } | Expr::BuiltinCall { args, .. } => {
            for a in args {
                visit(a, f);
            }
        }
        Expr::PtrOffset { ptr, offset, .. } => {
            visit(ptr, f);
            visit(offset, f);
        }
        Expr::Load { ptr, .. } => visit(ptr, f),
        Expr::Const { .. } | Expr::Local { .. } => {}
    }
}

fn inline_stmt(s: &mut Stmt, templates: &HashMap<FuncId, Template>) -> bool {
    match s {
        Stmt::Expr(e) | Stmt::Return(Some(e)) => inline_expr(e, templates),
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        } => {
            let mut c = inline_expr(cond, templates);
            for s in then_branch {
                c |= inline_stmt(s, templates);
            }
            for s in else_branch {
                c |= inline_stmt(s, templates);
            }
            c
        }
        Stmt::Loop {
            cond, body, step, ..
        } => {
            let mut c = inline_expr(cond, templates);
            for s in body {
                c |= inline_stmt(s, templates);
            }
            if let Some(step) = step {
                c |= inline_expr(step, templates);
            }
            c
        }
        Stmt::Return(None) | Stmt::Break | Stmt::Continue => false,
    }
}

fn inline_expr(e: &mut Expr, templates: &HashMap<FuncId, Template>) -> bool {
    // Recurse into children first so arguments are maximally simplified.
    let mut changed = match e {
        Expr::Unary { expr, .. } | Expr::Convert { expr, .. } => inline_expr(expr, templates),
        Expr::Binary { lhs, rhs, .. }
        | Expr::Compare { lhs, rhs, .. }
        | Expr::Logical { lhs, rhs, .. }
        | Expr::PtrDiff { lhs, rhs, .. } => {
            inline_expr(lhs, templates) | inline_expr(rhs, templates)
        }
        Expr::Ternary {
            cond,
            then_expr,
            else_expr,
            ..
        } => {
            inline_expr(cond, templates)
                | inline_expr(then_expr, templates)
                | inline_expr(else_expr, templates)
        }
        Expr::Assign { place, value, .. } => {
            let mut c = inline_expr(value, templates);
            if let Place::Deref { ptr, .. } = place {
                c |= inline_expr(ptr, templates);
            }
            c
        }
        Expr::Call { args, .. } | Expr::BuiltinCall { args, .. } => {
            let mut c = false;
            for a in args {
                c |= inline_expr(a, templates);
            }
            c
        }
        Expr::PtrOffset { ptr, offset, .. } => {
            inline_expr(ptr, templates) | inline_expr(offset, templates)
        }
        Expr::Load { ptr, .. } => inline_expr(ptr, templates),
        Expr::Const { .. } | Expr::Local { .. } | Expr::IncDec { .. } => false,
    };

    if let Expr::Call { func, args, .. } = e {
        if let Some(t) = templates.get(func) {
            if let Some(inlined) = try_substitute(t, args) {
                *e = inlined;
                changed = true;
            }
        }
    }
    changed
}

/// Builds the inlined expression, or `None` when substitution would
/// duplicate a non-trivial argument.
fn try_substitute(t: &Template, args: &[Expr]) -> Option<Expr> {
    debug_assert_eq!(args.len(), t.param_count);
    // Environment: local id -> replacement expression.
    let mut env: HashMap<LocalId, Expr> = HashMap::new();
    for (i, a) in args.iter().enumerate() {
        env.insert(LocalId(i as u32), a.clone());
    }
    // Check argument duplication: a parameter used more than once needs a
    // duplicable argument.
    for (i, a) in args.iter().enumerate() {
        if is_duplicable(a) {
            continue;
        }
        let id = LocalId(i as u32);
        let mut uses = 0usize;
        for (_, init) in &t.lets {
            uses += count_local_uses(init, id);
        }
        uses += count_local_uses(&t.result, id);
        if uses > 1 {
            return None;
        }
    }
    for (id, init) in &t.lets {
        let replaced = substitute(init, &env);
        env.insert(*id, replaced);
    }
    Some(substitute(&t.result, &env))
}

fn substitute(e: &Expr, env: &HashMap<LocalId, Expr>) -> Expr {
    match e {
        Expr::Local { id, .. } => env.get(id).cloned().unwrap_or_else(|| e.clone()),
        Expr::Const { .. } => e.clone(),
        Expr::Unary { op, expr, ty, span } => Expr::Unary {
            op: *op,
            expr: Box::new(substitute(expr, env)),
            ty: *ty,
            span: *span,
        },
        Expr::Convert { to, expr, span } => Expr::Convert {
            to: *to,
            expr: Box::new(substitute(expr, env)),
            span: *span,
        },
        Expr::Binary {
            op,
            lhs,
            rhs,
            ty,
            span,
        } => Expr::Binary {
            op: *op,
            lhs: Box::new(substitute(lhs, env)),
            rhs: Box::new(substitute(rhs, env)),
            ty: *ty,
            span: *span,
        },
        Expr::Compare {
            op,
            lhs,
            rhs,
            operand_ty,
            span,
        } => Expr::Compare {
            op: *op,
            lhs: Box::new(substitute(lhs, env)),
            rhs: Box::new(substitute(rhs, env)),
            operand_ty: *operand_ty,
            span: *span,
        },
        Expr::Logical {
            is_and,
            lhs,
            rhs,
            span,
        } => Expr::Logical {
            is_and: *is_and,
            lhs: Box::new(substitute(lhs, env)),
            rhs: Box::new(substitute(rhs, env)),
            span: *span,
        },
        Expr::Ternary {
            cond,
            then_expr,
            else_expr,
            ty,
            span,
        } => Expr::Ternary {
            cond: Box::new(substitute(cond, env)),
            then_expr: Box::new(substitute(then_expr, env)),
            else_expr: Box::new(substitute(else_expr, env)),
            ty: *ty,
            span: *span,
        },
        Expr::Call {
            func,
            args,
            ty,
            span,
        } => Expr::Call {
            func: *func,
            args: args.iter().map(|a| substitute(a, env)).collect(),
            ty: *ty,
            span: *span,
        },
        Expr::BuiltinCall {
            builtin,
            args,
            ty,
            span,
        } => Expr::BuiltinCall {
            builtin: *builtin,
            args: args.iter().map(|a| substitute(a, env)).collect(),
            ty: *ty,
            span: *span,
        },
        Expr::PtrOffset {
            ptr,
            offset,
            ty,
            span,
        } => Expr::PtrOffset {
            ptr: Box::new(substitute(ptr, env)),
            offset: Box::new(substitute(offset, env)),
            ty: *ty,
            span: *span,
        },
        Expr::PtrDiff { lhs, rhs, span } => Expr::PtrDiff {
            lhs: Box::new(substitute(lhs, env)),
            rhs: Box::new(substitute(rhs, env)),
            span: *span,
        },
        Expr::Load { ptr, elem, span } => Expr::Load {
            ptr: Box::new(substitute(ptr, env)),
            elem: *elem,
            span: *span,
        },
        // Templates never contain these (checked by `expr_is_inline_safe`).
        Expr::Assign { .. } | Expr::IncDec { .. } => {
            unreachable!("side-effecting expression in inline template")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Diagnostics;
    use crate::parser::parse;
    use crate::sema::analyze;
    use crate::source::SourceFile;

    fn lower(src: &str) -> Unit {
        let f = SourceFile::new("t.cl", src);
        let mut d = Diagnostics::new();
        let tu = parse(&f, &mut d);
        analyze(&tu, &mut d).unwrap_or_else(|| panic!("{}", d.render(&f)))
    }

    fn count_calls(unit: &Unit, name: &str) -> usize {
        let (target, _) = unit.function(name).unwrap();
        let mut n = 0;
        for f in &unit.functions {
            for s in &f.body {
                count_calls_stmt(s, target, &mut n);
            }
        }
        n
    }

    fn count_calls_expr(e: &Expr, target: FuncId, n: &mut usize) {
        visit(e, &mut |x| {
            if let Expr::Call { func, .. } = x {
                if *func == target {
                    *n += 1;
                }
            }
        });
    }

    fn count_calls_stmt(s: &Stmt, target: FuncId, n: &mut usize) {
        match s {
            Stmt::Expr(e) | Stmt::Return(Some(e)) => count_calls_expr(e, target, n),
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                count_calls_expr(cond, target, n);
                for s in then_branch {
                    count_calls_stmt(s, target, n);
                }
                for s in else_branch {
                    count_calls_stmt(s, target, n);
                }
            }
            Stmt::Loop {
                cond, body, step, ..
            } => {
                count_calls_expr(cond, target, n);
                for s in body {
                    count_calls_stmt(s, target, n);
                }
                if let Some(e) = step {
                    count_calls_expr(e, target, n);
                }
            }
            _ => {}
        }
    }

    #[test]
    fn inlines_simple_expression_function() {
        let mut u = lower(
            "float sq(float x){ return x * x; }
             __kernel void k(__global float* o, float v){ o[0] = sq(v) + sq(2.0f); }",
        );
        assert_eq!(count_calls(&u, "sq"), 2);
        inline_unit(&mut u);
        assert_eq!(count_calls(&u, "sq"), 0, "both calls inlined");
    }

    #[test]
    fn inlines_let_chain_function() {
        // fetch_clamped-style helper: single-use lets then a load.
        let mut u = lower(
            "float fetch(const float* p, int i, int n){
                 int j = clamp(i, 0, n - 1);
                 return p[j];
             }
             __kernel void k(__global const float* in, __global float* o, int n){
                 o[0] = fetch(in, -5, n);
             }",
        );
        inline_unit(&mut u);
        assert_eq!(count_calls(&u, "fetch"), 0);

        // A let-local used twice with a non-trivial initialiser must block
        // the template (no duplicated work).
        let mut u = lower(
            "float twice(const float* p, int i){
                 int j = i * 3 + 1;
                 return p[j] + (float)j;
             }
             __kernel void k(__global const float* in, __global float* o){
                 o[0] = twice(in, 2);
             }",
        );
        inline_unit(&mut u);
        assert_eq!(count_calls(&u, "twice"), 1);
    }

    #[test]
    fn refuses_to_duplicate_expensive_arguments() {
        // `x` is used twice in sq; the argument is a load -> must NOT inline.
        let mut u = lower(
            "float sq(float x){ return x * x; }
             __kernel void k(__global const float* in, __global float* o){
                 o[0] = sq(in[3]);
             }",
        );
        inline_unit(&mut u);
        assert_eq!(count_calls(&u, "sq"), 1, "load argument not duplicated");
    }

    #[test]
    fn control_flow_bodies_are_not_templates() {
        let mut u = lower(
            "int f(int x){ if (x > 0) return 1; return 0; }
             __kernel void k(__global int* o, int v){ o[0] = f(v); }",
        );
        inline_unit(&mut u);
        assert_eq!(count_calls(&u, "f"), 1);
    }

    #[test]
    fn side_effecting_bodies_are_not_templates() {
        let mut u = lower(
            "int bump(__global int* p){ return p[0]++; }
             __kernel void k(__global int* p, __global int* o){ o[0] = bump(p); }",
        );
        inline_unit(&mut u);
        assert_eq!(count_calls(&u, "bump"), 1);
    }

    #[test]
    fn chains_inline_through_fixpoint() {
        let mut u = lower(
            "float a(float x){ return x + 1.0f; }
             float b(float x){ return a(x) * 2.0f; }
             float c(float x){ return b(x) - 3.0f; }
             __kernel void k(__global float* o, float v){ o[0] = c(v); }",
        );
        inline_unit(&mut u);
        assert_eq!(count_calls(&u, "a"), 0);
        assert_eq!(count_calls(&u, "b"), 0);
        assert_eq!(count_calls(&u, "c"), 0);
    }

    #[test]
    fn inlined_programs_compute_identically() {
        // Differential check through the VM with inlining on (the default
        // compile pipeline) vs the oracle: the same unit never inlined,
        // lowered without passes, on the reference interpreter.
        use crate::value::{Ptr, Value};
        use crate::vm::{HostMemory, ItemGeometry, WorkItem};
        let src = "float helper(float x, float y){ return x * y + 1.0f; }
             float outer(float x){ return helper(x, 2.0f) + helper(3.0f, 4.0f); }
             __kernel void k(__global float* o, float v){ o[0] = outer(v); }";
        let run = |program: &crate::program::Program, reference: bool| {
            let mut mem = HostMemory::new();
            let out = mem.add_buffer(vec![0u8; 4]);
            let kernel = program.kernel("k").unwrap();
            let args = [
                Value::Ptr(Ptr {
                    space: crate::types::AddressSpace::Global,
                    buffer: out,
                    byte_offset: 0,
                }),
                Value::F32(5.0),
            ];
            let mut item = WorkItem::new(program, kernel.func, &args, ItemGeometry::single());
            if reference {
                item.run_reference(&mem, &mut []).unwrap();
            } else {
                item.run(&mem, &mut []).unwrap();
            }
            f32::from_le_bytes(mem.bytes(out)[..4].try_into().unwrap())
        };
        let with_inline = crate::compile("a.cl", src).unwrap();
        let unit = lower(src);
        let mut mir = crate::mir::lower_unit(&unit);
        crate::passes::run(&mut mir, &crate::OptConfig::none());
        let without = crate::lower::emit_unit(&mir, &unit, "b.cl");
        assert_eq!(run(&with_inline, false), run(&without, true));
        assert_eq!(
            run(&with_inline, false),
            5.0 * 2.0 + 1.0 + (3.0 * 4.0 + 1.0)
        );
    }

    #[test]
    fn trap_value_bodies_inline() {
        let mut u = lower(
            "float checked(const float* p, int i, int n){
                 return (i >= 0 && i < n) ? p[i] : (float)__skelcl_trap_int(7);
             }
             __kernel void k(__global const float* in, __global float* o, int n){
                 o[0] = checked(in, 2, n);
             }",
        );
        inline_unit(&mut u);
        assert_eq!(count_calls(&u, "checked"), 0);
    }
}
