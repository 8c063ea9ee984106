//! Skeleton code generation: parsing user-provided customizing functions,
//! validating their signatures, rewriting stencil `get()` accesses, and
//! welding them into complete kernels (the paper's §3.3 mechanism — "rather
//! than writing low-level kernels, the application developer customizes
//! suitable skeletons by providing application-specific functions").

use skelcl_kernel::ast::{self, Block, Declarator, Expr, Stmt, VarDecl};
use skelcl_kernel::diag::Diagnostics;
use skelcl_kernel::parser;
use skelcl_kernel::pretty;
use skelcl_kernel::source::SourceFile;
use skelcl_kernel::types::{ScalarType, Type};
use skelcl_kernel::value::Value;

use crate::error::{Error, Result};

/// A parsed and validated customizing function.
#[derive(Debug, Clone)]
pub(crate) struct UserFunction {
    /// The whole user translation unit (customizing function first, then
    /// optional helper functions).
    pub unit: ast::TranslationUnit,
    /// Name of the customizing function (the first one).
    pub name: String,
    /// Parameter types of the customizing function.
    pub params: Vec<Type>,
    /// Return type.
    pub ret: Type,
}

impl UserFunction {
    /// The user source, pretty-printed (after any rewriting).
    pub fn source(&self) -> String {
        pretty::print_unit(&self.unit)
    }

    /// Parameter types beyond the first `fixed` (the skeleton's extra
    /// arguments, which must be scalars).
    pub fn extra_params(&self, fixed: usize) -> &[Type] {
        &self.params[fixed.min(self.params.len())..]
    }
}

/// Parses `source` and extracts the customizing function (the first
/// function definition; later functions are helpers it may call).
///
/// Skeletons whose user functions are self-contained also pass them through
/// full semantic analysis here so the developer gets the compiler's
/// diagnostics immediately; `MapOverlap` skips that (its `get()` accessor
/// only resolves after rewriting) and relies on the post-weld check.
pub(crate) fn parse_user_function(skeleton: &'static str, source: &str) -> Result<UserFunction> {
    let file = SourceFile::new(format!("<{skeleton} customizing function>"), source);
    let mut diags = Diagnostics::new();
    let unit = parser::parse(&file, &mut diags);
    if diags.has_errors() {
        return Err(Error::InvalidCustomizingFunction {
            skeleton,
            reason: format!("parse error:\n{}", diags.render(&file)),
        });
    }
    if skeleton != "MapOverlap" {
        if let Err(e) = skelcl_kernel::check_parsed(&file, &unit, &mut diags) {
            return Err(Error::InvalidCustomizingFunction {
                skeleton,
                reason: format!("type error:\n{}", e.log),
            });
        }
    }
    let Some(first) = unit.functions.first() else {
        return Err(Error::InvalidCustomizingFunction {
            skeleton,
            reason: "source contains no function definition".into(),
        });
    };
    if unit.functions.iter().any(|f| f.is_kernel) {
        return Err(Error::InvalidCustomizingFunction {
            skeleton,
            reason: "customizing functions must not be `__kernel`".into(),
        });
    }
    Ok(UserFunction {
        name: first.name.clone(),
        params: first.params.iter().map(|p| p.ty).collect(),
        ret: first.return_type,
        unit,
    })
}

/// Checks that a parameter is the scalar type `expected`.
pub(crate) fn expect_scalar_param(
    skeleton: &'static str,
    f: &UserFunction,
    index: usize,
    expected: ScalarType,
) -> Result<()> {
    match f.params.get(index) {
        Some(Type::Scalar(s)) if *s == expected => Ok(()),
        other => Err(Error::InvalidCustomizingFunction {
            skeleton,
            reason: format!(
                "parameter {} of `{}` must have type `{expected}`, found `{}`",
                index + 1,
                f.name,
                other
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "<missing>".into())
            ),
        }),
    }
}

/// Checks that a parameter is a (const) pointer to `expected` (the stencil
/// or row-pointer parameter).
pub(crate) fn expect_pointer_param(
    skeleton: &'static str,
    f: &UserFunction,
    index: usize,
    expected: ScalarType,
) -> Result<()> {
    match f.params.get(index) {
        Some(Type::Pointer { pointee, .. }) if *pointee == expected => Ok(()),
        other => Err(Error::InvalidCustomizingFunction {
            skeleton,
            reason: format!(
                "parameter {} of `{}` must be a pointer to `{expected}`, found `{}`",
                index + 1,
                f.name,
                other
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "<missing>".into())
            ),
        }),
    }
}

/// Checks the return type.
pub(crate) fn expect_return(
    skeleton: &'static str,
    f: &UserFunction,
    expected: ScalarType,
) -> Result<()> {
    if f.ret == Type::Scalar(expected) {
        Ok(())
    } else {
        Err(Error::InvalidCustomizingFunction {
            skeleton,
            reason: format!("`{}` must return `{expected}`, found `{}`", f.name, f.ret),
        })
    }
}

/// Checks that all parameters from `fixed` onwards are scalars (extra
/// skeleton arguments).
pub(crate) fn expect_scalar_extras(
    skeleton: &'static str,
    f: &UserFunction,
    fixed: usize,
) -> Result<()> {
    for (i, p) in f.params.iter().enumerate().skip(fixed) {
        if !matches!(p, Type::Scalar(_)) {
            return Err(Error::InvalidCustomizingFunction {
                skeleton,
                reason: format!(
                    "extra parameter {} of `{}` must be a scalar, found `{p}`",
                    i + 1,
                    f.name
                ),
            });
        }
    }
    Ok(())
}

/// Formats extra-parameter declarations (`, float scale, int n`) for a
/// generated kernel signature.
pub(crate) fn extra_param_decls(extras: &[Type], prefix: &str) -> String {
    extras
        .iter()
        .enumerate()
        .map(|(i, t)| format!(", {t} {prefix}{i}"))
        .collect()
}

/// Formats extra-argument forwarding (`, __x0, __x1`).
pub(crate) fn extra_param_uses(extras: &[Type], prefix: &str) -> String {
    (0..extras.len())
        .map(|i| format!(", {prefix}{i}"))
        .collect()
}

/// Validates the number of extra argument values supplied at call time.
pub(crate) fn check_extra_args(
    skeleton: &'static str,
    extras: &[Type],
    supplied: &[Value],
) -> Result<()> {
    if extras.len() != supplied.len() {
        return Err(Error::ShapeMismatch {
            reason: format!(
                "{skeleton} customizing function takes {} extra argument(s), {} supplied",
                extras.len(),
                supplied.len()
            ),
        });
    }
    for (i, (expected, value)) in extras.iter().zip(supplied).enumerate() {
        if let (Type::Scalar(want), Some(got)) = (expected, value.scalar_type()) {
            if *want != got {
                return Err(Error::ShapeMismatch {
                    reason: format!("{skeleton} extra argument {i} must be `{want}`, got `{got}`"),
                });
            }
        }
    }
    Ok(())
}

/// Formats a scalar [`Value`] as a SkelCL C literal expression (used to
/// inline the `MapOverlap` neutral element into generated source).
pub(crate) fn c_literal(v: Value) -> String {
    match v {
        Value::Bool(b) => b.to_string(),
        Value::I8(x) => format!("(char)({x})"),
        Value::U8(x) => format!("(uchar)({x})"),
        Value::I16(x) => format!("(short)({x})"),
        Value::U16(x) => format!("(ushort)({x})"),
        Value::I32(x) => format!("({x})"),
        Value::U32(x) => format!("{x}u"),
        Value::I64(x) => format!("({x}L)"),
        Value::U64(x) => format!("{x}uL"),
        Value::F32(x) => format_float(x as f64, true),
        Value::F64(x) => format_float(x, false),
        Value::Ptr(_) => unreachable!("pointers are not literal scalars"),
    }
}

fn format_float(x: f64, single: bool) -> String {
    let mut s = format!("{x}");
    if !s.contains('.') && !s.contains('e') {
        s.push_str(".0");
    }
    if single {
        s.push('f');
    }
    if x < 0.0 {
        s = format!("({s})");
    }
    s
}

/// Rewrites `get(p, dx[, dy])` stencil accesses inside the customizing
/// function (the **first** function of `f.unit`) into calls to the
/// generated checked accessors, and threads a tile-width parameter through
/// for the matrix variant:
///
/// * matrix: `get(m, dx, dy)` → `__skelcl_get2(m, __skelcl_tw, dx, dy)`,
///   and the function gains a `int __skelcl_tw` parameter right after the
///   stencil pointer;
/// * vector: `get(v, di)` → `__skelcl_get1(v, di)`.
///
/// Returns the rewritten function's new parameter list length.
pub(crate) fn rewrite_get_calls(f: &mut UserFunction, matrix: bool) -> Result<()> {
    let func = &mut f.unit.functions[0];
    if matrix {
        // Insert the tile-width parameter after the stencil pointer.
        let span = func.params.first().map(|p| p.span).unwrap_or_default();
        func.params.insert(
            1,
            ast::Param {
                ty: Type::Scalar(ScalarType::Int),
                name: "__skelcl_tw".into(),
                span,
            },
        );
        f.params.insert(1, Type::Scalar(ScalarType::Int));
    }
    let expected_args = if matrix { 3 } else { 2 };
    let mut bad: Option<String> = None;
    visit_block_exprs(&mut func.body, &mut |e| {
        if let Expr::Call {
            callee,
            args,
            callee_span,
            ..
        } = e
        {
            if callee == "get" {
                if args.len() != expected_args {
                    if bad.is_none() {
                        bad = Some(format!(
                            "`get` takes {} arguments for {} stencils, found {}",
                            expected_args,
                            if matrix { "matrix" } else { "vector" },
                            args.len()
                        ));
                    }
                    return;
                }
                if matrix {
                    *callee = "__skelcl_get2".into();
                    args.insert(
                        1,
                        Expr::Ident {
                            name: "__skelcl_tw".into(),
                            span: *callee_span,
                        },
                    );
                } else {
                    *callee = "__skelcl_get1".into();
                }
            }
        }
    });
    match bad {
        Some(reason) => Err(Error::InvalidCustomizingFunction {
            skeleton: "MapOverlap",
            reason,
        }),
        None => Ok(()),
    }
}

/// Applies `f` to every expression in a block, post-order (an expression's
/// children are visited before the expression itself). The single traversal
/// behind both the stencil `get()` rewrite and fusion-stage renaming.
fn visit_block_exprs(b: &mut Block, f: &mut dyn FnMut(&mut Expr)) {
    for s in &mut b.stmts {
        visit_stmt_exprs(s, f);
    }
}

fn visit_stmt_exprs(s: &mut Stmt, f: &mut dyn FnMut(&mut Expr)) {
    match s {
        Stmt::Block(b) => visit_block_exprs(b, f),
        Stmt::Decl(VarDecl { declarators, .. }) => {
            for Declarator {
                array_size, init, ..
            } in declarators
            {
                if let Some(e) = array_size {
                    visit_expr(e, f);
                }
                if let Some(e) = init {
                    visit_expr(e, f);
                }
            }
        }
        Stmt::Expr(e) => visit_expr(e, f),
        Stmt::If {
            cond,
            then_branch,
            else_branch,
            ..
        } => {
            visit_expr(cond, f);
            visit_stmt_exprs(then_branch, f);
            if let Some(e) = else_branch {
                visit_stmt_exprs(e, f);
            }
        }
        Stmt::For {
            init,
            cond,
            step,
            body,
            ..
        } => {
            if let Some(init) = init {
                visit_stmt_exprs(init, f);
            }
            if let Some(cond) = cond {
                visit_expr(cond, f);
            }
            if let Some(step) = step {
                visit_expr(step, f);
            }
            visit_stmt_exprs(body, f);
        }
        Stmt::While { cond, body, .. } | Stmt::DoWhile { cond, body, .. } => {
            visit_expr(cond, f);
            visit_stmt_exprs(body, f);
        }
        Stmt::Return { value: Some(e), .. } => visit_expr(e, f),
        Stmt::Return { value: None, .. } | Stmt::Break(_) | Stmt::Continue(_) | Stmt::Empty(_) => {}
    }
}

fn visit_expr(e: &mut Expr, f: &mut dyn FnMut(&mut Expr)) {
    match e {
        Expr::Call { args, .. } => {
            for a in args.iter_mut() {
                visit_expr(a, f);
            }
        }
        Expr::Unary { expr, .. } | Expr::Cast { expr, .. } => visit_expr(expr, f),
        Expr::Binary { lhs, rhs, .. } | Expr::Assign { lhs, rhs, .. } => {
            visit_expr(lhs, f);
            visit_expr(rhs, f);
        }
        Expr::Ternary {
            cond,
            then_expr,
            else_expr,
            ..
        } => {
            visit_expr(cond, f);
            visit_expr(then_expr, f);
            visit_expr(else_expr, f);
        }
        Expr::Index { base, index, .. } => {
            visit_expr(base, f);
            visit_expr(index, f);
        }
        Expr::IntLit { .. }
        | Expr::FloatLit { .. }
        | Expr::BoolLit { .. }
        | Expr::CharLit { .. }
        | Expr::Ident { .. } => {}
    }
    f(e);
}

/// Renames every function defined in `unit` by appending `suffix`, and
/// rewrites the call sites that refer to them. Calls to built-ins (or to
/// anything not defined in the unit) are left alone. This lets several
/// user translation units coexist in one fused kernel without name
/// collisions.
pub(crate) fn suffix_functions(unit: &mut ast::TranslationUnit, suffix: &str) {
    let defined: std::collections::HashSet<String> =
        unit.functions.iter().map(|f| f.name.clone()).collect();
    for func in &mut unit.functions {
        func.name = format!("{}{suffix}", func.name);
        visit_block_exprs(&mut func.body, &mut |e| {
            if let Expr::Call { callee, .. } = e {
                if defined.contains(callee.as_str()) {
                    *callee = format!("{callee}{suffix}");
                }
            }
        });
    }
}

/// One elementwise stage of a fused expression: the user's translation
/// unit with every definition renamed by a content-derived suffix, so
/// stages originating from different skeleton instances (or the same
/// source used twice) weld into a single translation unit without
/// collisions — identical sources rename identically and deduplicate.
#[derive(Debug, Clone)]
pub(crate) struct StageSpec {
    /// Renamed, pretty-printed user translation unit.
    pub source: String,
    /// Renamed name of the customizing function.
    pub name: String,
    /// Output scalar type of the stage.
    pub ret: ScalarType,
}

/// Builds the fusion [`StageSpec`] for a validated elementwise customizing
/// function with scalar output type `ret`.
pub(crate) fn stage_spec(f: &UserFunction, ret: ScalarType) -> StageSpec {
    let mut unit = f.unit.clone();
    let suffix = format!("_{:032x}", source_hash("stage", &f.source()));
    suffix_functions(&mut unit, &suffix);
    let name = unit.functions[0].name.clone();
    StageSpec {
        source: pretty::print_unit(&unit),
        name,
        ret,
    }
}

/// Builds the fusion translation unit and renamed entry point for a
/// stencil customizing function (after `get` rewriting). The hash seed
/// differs from elementwise stages so a stencil function and an
/// identically-sourced elementwise function never collide in one unit;
/// calls to `__skelcl_get1` survive unsuffixed (not defined in the unit)
/// and bind to the fused kernel's accessor.
pub(crate) fn stencil_stage(f: &UserFunction) -> (String, String) {
    let mut unit = f.unit.clone();
    let suffix = format!("_{:032x}", source_hash("stencil", &f.source()));
    suffix_functions(&mut unit, &suffix);
    let name = unit.functions[0].name.clone();
    (pretty::print_unit(&unit), name)
}

/// Welds the uniform n-ary elementwise kernel around a customizing
/// function — the single generator behind `Map` (arity 1), `Zip`
/// (arity 2) and any future elementwise pattern:
///
/// ```text
/// <user translation unit>
/// __kernel void <kernel>(__global const I0* skelcl_in0, …,
///                        __global O* skelcl_out, int skelcl_n, <extras>) {
///     int skelcl_i = (int)get_global_id(0);
///     if (skelcl_i < skelcl_n)
///         skelcl_out[skelcl_i] = f(skelcl_in0[skelcl_i], …, <extras>);
/// }
/// ```
pub(crate) fn weld_elementwise(
    kernel: &str,
    user: &UserFunction,
    inputs: &[ScalarType],
    out: ScalarType,
) -> String {
    let extras = user.extra_params(inputs.len());
    let params: String = inputs
        .iter()
        .enumerate()
        .map(|(i, t)| format!("__global const {t}* skelcl_in{i}, "))
        .collect();
    let args = (0..inputs.len())
        .map(|i| format!("skelcl_in{i}[skelcl_i]"))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{unit}\n\
         __kernel void {kernel}({params}__global {out}* skelcl_out, int skelcl_n{decls}) {{\n\
         \x20   int skelcl_i = (int)get_global_id(0);\n\
         \x20   if (skelcl_i < skelcl_n) skelcl_out[skelcl_i] = {f}({args}{uses});\n\
         }}\n",
        unit = user.source(),
        f = user.name,
        decls = extra_param_decls(extras, "skelcl_x"),
        uses = extra_param_uses(extras, "skelcl_x"),
    )
}

/// Compiles generated kernel source, classifying failures as SkelCL bugs
/// (the user function already parsed; a failure here means the weld is
/// wrong).
pub(crate) fn compile_generated(
    name: &str,
    source: &str,
    cfg: &skelcl_kernel::OptConfig,
) -> Result<skelcl_kernel::Program> {
    skelcl_kernel::compile_with_config(name, source, cfg).map_err(|e| Error::KernelCompilation {
        source: source.to_string(),
        log: e.log,
    })
}

/// FNV-1a-128 hash of generated kernel source — the program-cache key,
/// also used to derive collision-free fusion-stage suffixes. 128 bits
/// (rather than the original 64) because stage suffixes are a *naming*
/// mechanism: a collision between two distinct stage bodies would silently
/// weld the wrong function into a fused kernel, so the collision
/// probability has to be negligible even across adversarial inputs.
pub(crate) fn source_hash(name: &str, source: &str) -> u128 {
    let mut h: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    for b in name.bytes().chain([0u8]).chain(source.bytes()) {
        h ^= b as u128;
        h = h.wrapping_mul(0x0000_0000_0100_0000_0000_0000_0000_013b);
    }
    h
}

/// [`compile_generated`] through the context's program cache: identical
/// generated source compiles once per context. Cache traffic is visible as
/// the `compile.cache_hit` / `compile.cache_miss` metrics, and an actual
/// compilation is traced as a `compile` span.
pub(crate) fn compile_cached(
    ctx: &crate::context::Context,
    name: &str,
    source: &str,
) -> Result<skelcl_kernel::Program> {
    let profiler = ctx.profiler();
    let hash = source_hash(name, source);
    if let Some(program) = ctx.cached_program(hash) {
        profiler.add(skelcl_profile::metrics::COMPILE_CACHE_HIT, 1);
        return Ok(program);
    }
    profiler.add(skelcl_profile::metrics::COMPILE_CACHE_MISS, 1);
    let mut span = profiler.host_span(skelcl_profile::SpanKind::Compile, name);
    let program = compile_generated(name, source, &ctx.config().kernel)?;
    profiler.record_compile(&mut span, program.compile_stats());
    ctx.store_program(hash, program.clone());
    Ok(program)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_map_function() {
        let f = parse_user_function("Map", "float func(float x){ return -x; }").unwrap();
        assert_eq!(f.name, "func");
        assert_eq!(f.params, vec![Type::Scalar(ScalarType::Float)]);
        assert_eq!(f.ret, Type::Scalar(ScalarType::Float));
        assert!(f.extra_params(1).is_empty());
    }

    #[test]
    fn helpers_allowed_after_customizing_function() {
        let f = parse_user_function(
            "Map",
            "float func(float x){ return helper(x) * 2.0f; }
             float helper(float x){ return x + 1.0f; }",
        )
        .unwrap();
        assert_eq!(f.name, "func");
        assert_eq!(f.unit.functions.len(), 2);
    }

    #[test]
    fn rejects_bad_source() {
        let err = parse_user_function("Map", "float func(float x){ return + ; }").unwrap_err();
        assert!(err.to_string().contains("parse error"));
        let err = parse_user_function("Map", "").unwrap_err();
        assert!(err.to_string().contains("no function definition"));
        let err = parse_user_function("Map", "__kernel void k(__global int* p){ }").unwrap_err();
        assert!(err.to_string().contains("must not be `__kernel`"));
    }

    #[test]
    fn type_error_log_renders_parse_and_sema_diagnostics() {
        // The function is parsed once and type-checked on that tree; the
        // log is the one a separate lex/parse/sema run renders, warnings
        // included.
        let err = parse_user_function("Map", "float func(float x){ return x + y; }").unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid customizing function for Map: type error:\n\
             <Map customizing function>:1:33: error: use of undeclared identifier `y`\n  \
             float func(float x){ return x + y; }\n                                  ^\n\
             <Map customizing function>:1:7: warning: control may reach the end of non-void \
             function `func`\n  float func(float x){ return x + y; }\n        ^~~~"
        );
        let err = parse_user_function("Map", "float func(float x){ int* p = x; return 1.0f; }")
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid customizing function for Map: type error:\n\
             <Map customizing function>:1:27: error: cannot convert `float` to `int*`\n  \
             float func(float x){ int* p = x; return 1.0f; }\n                            ^~~~~"
        );
    }

    #[test]
    fn signature_validation() {
        let f = parse_user_function("Zip", "float mult(float x, float y){ return x*y; }").unwrap();
        expect_scalar_param("Zip", &f, 0, ScalarType::Float).unwrap();
        expect_scalar_param("Zip", &f, 1, ScalarType::Float).unwrap();
        expect_return("Zip", &f, ScalarType::Float).unwrap();
        assert!(expect_scalar_param("Zip", &f, 0, ScalarType::Int).is_err());
        assert!(expect_scalar_param("Zip", &f, 2, ScalarType::Float).is_err());
        assert!(expect_return("Zip", &f, ScalarType::Char).is_err());
    }

    #[test]
    fn extras_must_be_scalars() {
        let f = parse_user_function(
            "Map",
            "uchar func(int gid, int width, float scale){ return (uchar)(gid + width); }",
        )
        .unwrap();
        expect_scalar_extras("Map", &f, 1).unwrap();
        assert_eq!(f.extra_params(1).len(), 2);
        assert_eq!(
            extra_param_decls(f.extra_params(1), "__x"),
            ", int __x0, float __x1"
        );
        assert_eq!(extra_param_uses(f.extra_params(1), "__x"), ", __x0, __x1");

        let g = parse_user_function(
            "Map",
            "float func(float x, const float* lut){ return lut[0] * x; }",
        )
        .unwrap();
        assert!(expect_scalar_extras("Map", &g, 1).is_err());
    }

    #[test]
    fn c_literals() {
        assert_eq!(c_literal(Value::F32(0.0)), "0.0f");
        assert_eq!(c_literal(Value::F32(-1.5)), "(-1.5f)");
        assert_eq!(c_literal(Value::F64(2.0)), "2.0");
        assert_eq!(c_literal(Value::I32(-3)), "(-3)");
        assert_eq!(c_literal(Value::U8(200)), "(uchar)(200)");
        assert_eq!(c_literal(Value::U64(1)), "1uL");
        assert_eq!(c_literal(Value::Bool(true)), "true");
    }

    #[test]
    fn rewrites_matrix_get_calls() {
        let mut f = parse_user_function(
            "MapOverlap",
            "float func(const float* m){
                float sum = 0.0f;
                for (int i = -1; i <= 1; ++i)
                    for (int j = -1; j <= 1; ++j)
                        sum += get(m, i, j);
                return sum;
            }",
        )
        .unwrap();
        rewrite_get_calls(&mut f, true).unwrap();
        let src = f.source();
        assert!(src.contains("__skelcl_get2(m, __skelcl_tw, i, j)"), "{src}");
        assert!(src.contains("int __skelcl_tw"), "{src}");
        assert!(!src.contains("get(m"), "{src}");
        assert_eq!(f.params.len(), 2);
    }

    #[test]
    fn rewrites_vector_get_calls() {
        let mut f = parse_user_function(
            "MapOverlap",
            "float func(const float* v){ return get(v, -1) + get(v, 0) + get(v, 1); }",
        )
        .unwrap();
        rewrite_get_calls(&mut f, false).unwrap();
        let src = f.source();
        assert!(src.contains("__skelcl_get1(v, "), "{src}");
        assert_eq!(f.params.len(), 1, "vector variant adds no parameter");
    }

    #[test]
    fn rejects_wrong_get_arity() {
        let mut f = parse_user_function(
            "MapOverlap",
            "float func(const float* m){ return get(m, 1); }",
        )
        .unwrap();
        let err = rewrite_get_calls(&mut f, true).unwrap_err();
        assert!(err.to_string().contains("takes 3 arguments"), "{err}");
    }

    #[test]
    fn suffix_functions_renames_definitions_and_calls() {
        let f = parse_user_function(
            "Map",
            "float func(float x){ return helper(x) + sqrt(x); }
             float helper(float x){ return x + 1.0f; }",
        )
        .unwrap();
        let mut unit = f.unit.clone();
        suffix_functions(&mut unit, "_abc");
        let src = pretty::print_unit(&unit);
        assert!(src.contains("func_abc"), "{src}");
        assert!(src.contains("helper_abc(x)"), "{src}");
        // Built-ins keep their names.
        assert!(src.contains("sqrt(x)"), "{src}");
        assert!(!src.contains("helper(x)"), "{src}");
    }

    #[test]
    fn stage_specs_dedupe_by_content() {
        let f = parse_user_function("Map", "float neg(float x){ return -x; }").unwrap();
        let g = parse_user_function("Map", "float neg(float x){ return -x; }").unwrap();
        let h = parse_user_function("Map", "float neg(float x){ return -x - 0.0f; }").unwrap();
        let sf = stage_spec(&f, ScalarType::Float);
        let sg = stage_spec(&g, ScalarType::Float);
        let sh = stage_spec(&h, ScalarType::Float);
        // Identical sources rename identically (so they deduplicate)...
        assert_eq!(sf.source, sg.source);
        assert_eq!(sf.name, sg.name);
        // ...while different bodies with the same function name diverge.
        assert_ne!(sf.name, sh.name);
        // The welded unit must still compile under the new names.
        let probe = format!(
            "{}\n{}\n__kernel void probe(__global float* o){{ o[0] = {}({}(1.0f)); }}",
            sf.source, sh.source, sf.name, sh.name
        );
        compile_generated("stage_probe.cl", &probe, &Default::default()).unwrap();
    }

    #[test]
    fn stage_suffix_is_full_width_and_collision_resistant() {
        // Regression test for the content-hash widening: the suffix must
        // carry the full 128-bit digest (32 hex chars), the hash must be
        // domain-separated (name vs source boundary matters), and
        // near-identical stage bodies must never share a suffix.
        let f = parse_user_function("Map", "float f(float x){ return x + 1.0f; }").unwrap();
        let s = stage_spec(&f, ScalarType::Float);
        let suffix = s.name.strip_prefix("f_").unwrap();
        assert_eq!(suffix.len(), 32, "suffix carries the full digest: {s:?}");
        assert!(suffix.chars().all(|c| c.is_ascii_hexdigit()));

        // Domain separation: moving a byte across the name/source boundary
        // must change the digest.
        assert_ne!(source_hash("a", "bc"), source_hash("ab", "c"));
        assert_ne!(source_hash("stage", "x"), source_hash("stagex", ""));

        // Single-character body variations all hash apart.
        let mut seen = std::collections::HashSet::new();
        for op in ["+", "-", "*", "/"] {
            let src = format!("float f(float x){{ return x {op} 2.0f; }}");
            let g = parse_user_function("Map", &src).unwrap();
            let spec = stage_spec(&g, ScalarType::Float);
            assert!(seen.insert(spec.name.clone()), "suffix collision: {op}");
        }
    }

    #[test]
    fn welds_nary_elementwise_kernel() {
        let f = parse_user_function(
            "Zip",
            "float madd(float a, float b, float s){ return a*b+s; }",
        )
        .unwrap();
        let src = weld_elementwise(
            "skelcl_zip",
            &f,
            &[ScalarType::Float, ScalarType::Float],
            ScalarType::Float,
        );
        assert!(
            src.contains("madd(skelcl_in0[skelcl_i], skelcl_in1[skelcl_i], skelcl_x0)"),
            "{src}"
        );
        compile_generated("weld_probe.cl", &src, &Default::default()).unwrap();
    }

    #[test]
    fn compile_cache_hits_on_identical_source() {
        use skelcl_profile::{metrics, Profiler};
        let ctx = crate::Context::init_with_profiler(
            vgpu::Platform::single(vgpu::DeviceSpec::test_tiny()),
            crate::DeviceSelection::All,
            Profiler::enabled(),
        );
        let src = "__kernel void k(__global int* p){ p[0] = 7; }";
        compile_cached(&ctx, "probe.cl", src).unwrap();
        compile_cached(&ctx, "probe.cl", src).unwrap();
        compile_cached(
            &ctx,
            "probe.cl",
            "__kernel void k(__global int* p){ p[0] = 8; }",
        )
        .unwrap();
        let prof = ctx.profiler();
        assert_eq!(prof.counter(metrics::COMPILE_CACHE_HIT), 1);
        assert_eq!(prof.counter(metrics::COMPILE_CACHE_MISS), 2);
    }

    #[test]
    fn rewritten_sobel_compiles_in_context() {
        // The paper's Listing 1.5 user function, rewritten and welded into
        // a minimal harness, must compile.
        let mut f = parse_user_function(
            "MapOverlap",
            "char func(const char* img){
                short h = -1*get(img,-1,-1) +1*get(img,+1,-1)
                          -2*get(img,-1, 0) +2*get(img,+1, 0)
                          -1*get(img,-1,+1) +1*get(img,+1,+1);
                short v = -1*get(img,-1,-1) -2*get(img,0,-1) -1*get(img,+1,-1)
                          +1*get(img,-1,+1) +2*get(img,0,+1) +1*get(img,+1,+1);
                return (char)sqrt((float)(h*h + v*v));
            }",
        )
        .unwrap();
        rewrite_get_calls(&mut f, true).unwrap();
        let source = format!(
            "{}\nchar __skelcl_get2(const char* c, int tw, int dx, int dy){{\n\
                 if (dx < -1 || dx > 1 || dy < -1 || dy > 1) __skelcl_trap(100);\n\
                 return c[dy * tw + dx];\n\
             }}\n\
             __kernel void probe(__global const char* t, __global char* o, int tw){{\n\
                 o[0] = func(&t[tw + 1], tw);\n\
             }}",
            f.source()
        );
        compile_generated("sobel_probe.cl", &source, &Default::default()).unwrap();
    }
}
