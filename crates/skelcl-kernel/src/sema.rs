//! Semantic analysis: name resolution, type checking and lowering of the AST
//! to the typed [HIR](crate::hir).
//!
//! Language rules enforced here (a faithful subset of OpenCL C, with the
//! deviations called out in the crate docs):
//!
//! * kernels return `void`; their pointer parameters must be explicitly
//!   `__global` or `__local`;
//! * unqualified pointer types behave like OpenCL 2.0 *generic* pointers:
//!   they may receive values of any address space (the true space travels
//!   with the runtime value);
//! * `__local` arrays may only be declared inside kernels and their sizes
//!   must be compile-time constants;
//! * recursion (direct or mutual) is rejected, as in OpenCL;
//! * all implicit scalar conversions of C are applied and made explicit.

use std::collections::HashMap;

use crate::ast;
use crate::builtins::{predefined_constant, Builtin, BuiltinKind, WORK_ITEM_QUERY_RESULT};
use crate::diag::Diagnostics;
use crate::hir::{
    self, BinOp, CmpOp, ConstValue, Expr, FuncId, Function, LocalArray, LocalDecl, LocalId, Place,
    Stmt, UnOp, Unit,
};
use crate::source::Span;
use crate::types::{integer_promote, usual_arithmetic_conversion, AddressSpace, ScalarType, Type};

/// Type-checks `tu`, returning the lowered unit, or `None` when errors were
/// reported to `diags`.
pub fn analyze(tu: &ast::TranslationUnit, diags: &mut Diagnostics) -> Option<Unit> {
    let mut sigs: Vec<FuncSig> = Vec::new();
    let mut by_name: HashMap<&str, FuncId> = HashMap::new();

    // Pass 1: collect signatures so functions can be used before their
    // definition (SkelCL welds user functions before generated kernels).
    for f in &tu.functions {
        if Builtin::resolve(&f.name).is_some() {
            diags.error(
                f.name_span,
                format!("cannot redefine builtin function `{}`", f.name),
            );
            continue;
        }
        if let Some(&prev) = by_name.get(f.name.as_str()) {
            diags.push(
                crate::diag::Diagnostic::error(
                    f.name_span,
                    format!("redefinition of function `{}`", f.name),
                )
                .with_note(
                    sigs[prev.0 as usize].name_span,
                    "previous definition is here",
                ),
            );
            continue;
        }
        if f.is_kernel && f.return_type != Type::Void {
            diags.error(f.name_span, "kernel functions must return `void`");
        }
        for p in &f.params {
            if p.ty == Type::Void {
                diags.error(p.span, "parameters cannot have type `void`");
            }
            if f.is_kernel {
                if let Type::Pointer {
                    space: AddressSpace::Private,
                    ..
                } = p.ty
                {
                    diags.error(
                        p.span,
                        "kernel pointer parameters must be `__global` or `__local`",
                    );
                }
            }
        }
        let id = FuncId(sigs.len() as u32);
        by_name.insert(f.name.as_str(), id);
        sigs.push(FuncSig {
            name: f.name.clone(),
            name_span: f.name_span,
            is_kernel: f.is_kernel,
            return_type: f.return_type,
            params: f.params.iter().map(|p| p.ty).collect(),
        });
    }

    if diags.has_errors() {
        return None;
    }

    // Pass 2: check bodies.
    let mut functions = Vec::with_capacity(sigs.len());
    let mut call_edges: Vec<Vec<FuncId>> = vec![Vec::new(); sigs.len()];
    for f in &tu.functions {
        let Some(&id) = by_name.get(f.name.as_str()) else {
            continue;
        };
        let checker = FnChecker {
            sigs: &sigs,
            by_name: &by_name,
            diags,
            func: &sigs[id.0 as usize],
            is_kernel: f.is_kernel,
            locals: Vec::new(),
            scopes: vec![HashMap::new()],
            loop_depth: 0,
            calls: Vec::new(),
        };
        let function = checker.check_function(f);
        call_edges[id.0 as usize] = function.1;
        functions.push(function.0);
    }

    check_recursion(&sigs, &call_edges, diags);

    if diags.has_errors() {
        None
    } else {
        Some(Unit { functions })
    }
}

/// Rejects call cycles (OpenCL forbids recursion).
fn check_recursion(sigs: &[FuncSig], edges: &[Vec<FuncId>], diags: &mut Diagnostics) {
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Grey,
        Black,
    }
    let mut marks = vec![Mark::White; sigs.len()];
    fn dfs(
        v: usize,
        sigs: &[FuncSig],
        edges: &[Vec<FuncId>],
        marks: &mut [Mark],
        diags: &mut Diagnostics,
    ) {
        marks[v] = Mark::Grey;
        for &t in &edges[v] {
            match marks[t.0 as usize] {
                Mark::White => dfs(t.0 as usize, sigs, edges, marks, diags),
                Mark::Grey => diags.error(
                    sigs[t.0 as usize].name_span,
                    format!(
                        "recursion is not allowed in kernel code: `{}` is reachable from itself",
                        sigs[t.0 as usize].name
                    ),
                ),
                Mark::Black => {}
            }
        }
        marks[v] = Mark::Black;
    }
    for v in 0..sigs.len() {
        if marks[v] == Mark::White {
            dfs(v, sigs, edges, &mut marks, diags);
        }
    }
}

struct FuncSig {
    name: String,
    name_span: Span,
    is_kernel: bool,
    return_type: Type,
    params: Vec<Type>,
}

type CResult<T> = Result<T, ()>;

struct FnChecker<'a> {
    sigs: &'a [FuncSig],
    by_name: &'a HashMap<&'a str, FuncId>,
    diags: &'a mut Diagnostics,
    func: &'a FuncSig,
    is_kernel: bool,
    locals: Vec<LocalDecl>,
    scopes: Vec<HashMap<String, LocalId>>,
    loop_depth: u32,
    calls: Vec<FuncId>,
}

impl<'a> FnChecker<'a> {
    fn check_function(mut self, f: &ast::Function) -> (Function, Vec<FuncId>) {
        for p in &f.params {
            self.declare(p.name.clone(), p.ty, false, None, p.span);
        }
        let param_count = self.locals.len();
        let body = self.check_block(&f.body);

        if f.return_type != Type::Void && !stmts_definitely_return(&body) {
            self.diags.warning(
                f.name_span,
                format!(
                    "control may reach the end of non-void function `{}`",
                    f.name
                ),
            );
        }

        (
            Function {
                is_kernel: f.is_kernel,
                name: f.name.clone(),
                return_type: f.return_type,
                param_count,
                locals: self.locals,
                body,
                span: f.span,
            },
            self.calls,
        )
    }

    // ----- scopes ---------------------------------------------------------

    fn declare(
        &mut self,
        name: String,
        ty: Type,
        is_const: bool,
        local_array: Option<LocalArray>,
        span: Span,
    ) -> LocalId {
        let id = LocalId(self.locals.len() as u32);
        let scope = self.scopes.last_mut().expect("scope stack never empty");
        if let Some(&prev) = scope.get(&name) {
            let prev_span = self.locals[prev.0 as usize].span;
            self.diags.push(
                crate::diag::Diagnostic::error(span, format!("redefinition of `{name}`"))
                    .with_note(prev_span, "previous definition is here"),
            );
        }
        scope.insert(name.clone(), id);
        self.locals.push(LocalDecl {
            name,
            ty,
            is_const,
            local_array,
            span,
        });
        id
    }

    fn lookup(&self, name: &str) -> Option<LocalId> {
        self.scopes.iter().rev().find_map(|s| s.get(name).copied())
    }

    fn in_scope<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        self.scopes.push(HashMap::new());
        let r = f(self);
        self.scopes.pop();
        r
    }

    // ----- statements -------------------------------------------------------

    fn check_block(&mut self, b: &ast::Block) -> Vec<Stmt> {
        self.in_scope(|this| {
            let mut out = Vec::new();
            for s in &b.stmts {
                this.check_stmt_into(s, &mut out);
            }
            out
        })
    }

    /// Checks one statement, appending the lowered form(s) to `out`.
    /// Erroneous statements are dropped (the error is already reported).
    fn check_stmt_into(&mut self, s: &ast::Stmt, out: &mut Vec<Stmt>) {
        match s {
            ast::Stmt::Block(b) => {
                let stmts = self.check_block(b);
                // A bare block still brackets its scope; lowering keeps the
                // statements inline since scoping is resolved here.
                out.extend(stmts);
            }
            ast::Stmt::Empty(_) => {}
            ast::Stmt::Decl(d) => self.check_decl(d, out),
            ast::Stmt::Expr(e) => {
                if let Ok(e) = self.check_expr(e) {
                    out.push(Stmt::Expr(e));
                }
            }
            ast::Stmt::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                let cond = self.check_condition(cond);
                let then_branch = self.in_scope(|t| {
                    let mut v = Vec::new();
                    t.check_stmt_into(then_branch, &mut v);
                    v
                });
                let else_branch = match else_branch {
                    Some(e) => self.in_scope(|t| {
                        let mut v = Vec::new();
                        t.check_stmt_into(e, &mut v);
                        v
                    }),
                    None => Vec::new(),
                };
                if let Ok(cond) = cond {
                    out.push(Stmt::If {
                        cond,
                        then_branch,
                        else_branch,
                    });
                }
            }
            ast::Stmt::While { cond, body, .. } => {
                let cond = self.check_condition(cond);
                let body = self.check_loop_body(body);
                if let Ok(cond) = cond {
                    out.push(Stmt::Loop {
                        cond,
                        body,
                        step: None,
                        test_at_end: false,
                    });
                }
            }
            ast::Stmt::DoWhile { body, cond, .. } => {
                let body = self.check_loop_body(body);
                let cond = self.check_condition(cond);
                if let Ok(cond) = cond {
                    out.push(Stmt::Loop {
                        cond,
                        body,
                        step: None,
                        test_at_end: true,
                    });
                }
            }
            ast::Stmt::For {
                init,
                cond,
                step,
                body,
                ..
            } => {
                self.in_scope(|this| {
                    if let Some(init) = init {
                        this.check_stmt_into(init, out);
                    }
                    let cond = match cond {
                        Some(c) => this.check_condition(c),
                        None => Ok(Expr::Const {
                            value: ConstValue::Bool(true),
                            span: s.span(),
                        }),
                    };
                    let step = match step {
                        Some(e) => this.check_expr(e).ok(),
                        None => None,
                    };
                    let body = this.check_loop_body(body);
                    if let Ok(cond) = cond {
                        out.push(Stmt::Loop {
                            cond,
                            body,
                            step,
                            test_at_end: false,
                        });
                    }
                });
            }
            ast::Stmt::Return { value, span } => {
                let lowered = match (value, self.func.return_type) {
                    (None, Type::Void) => Some(Stmt::Return(None)),
                    (Some(v), Type::Void) => {
                        // Evaluate for errors, then complain.
                        let _ = self.check_expr(v);
                        self.diags
                            .error(*span, "void function cannot return a value");
                        None
                    }
                    (None, _) => {
                        self.diags.error(
                            *span,
                            format!("non-void function `{}` must return a value", self.func.name),
                        );
                        None
                    }
                    (Some(v), ret) => match self.check_expr(v) {
                        Ok(e) => match self.coerce(e, ret, *span) {
                            Ok(e) => Some(Stmt::Return(Some(e))),
                            Err(()) => None,
                        },
                        Err(()) => None,
                    },
                };
                out.extend(lowered);
            }
            ast::Stmt::Break(span) => {
                if self.loop_depth == 0 {
                    self.diags.error(*span, "`break` outside of a loop");
                } else {
                    out.push(Stmt::Break);
                }
            }
            ast::Stmt::Continue(span) => {
                if self.loop_depth == 0 {
                    self.diags.error(*span, "`continue` outside of a loop");
                } else {
                    out.push(Stmt::Continue);
                }
            }
        }
    }

    fn check_loop_body(&mut self, body: &ast::Stmt) -> Vec<Stmt> {
        self.loop_depth += 1;
        let v = self.in_scope(|t| {
            let mut v = Vec::new();
            t.check_stmt_into(body, &mut v);
            v
        });
        self.loop_depth -= 1;
        v
    }

    fn check_decl(&mut self, d: &ast::VarDecl, out: &mut Vec<Stmt>) {
        for decl in &d.declarators {
            if let Some(size) = &decl.array_size {
                self.check_array_decl(d, decl, size);
                continue;
            }
            if d.space == AddressSpace::Local && !d.is_pointer {
                self.diags.error(
                    decl.span,
                    "only `__local` arrays are supported; scalar `__local` variables are not",
                );
                continue;
            }
            if d.space == AddressSpace::Global && !d.is_pointer {
                self.diags.error(
                    decl.span,
                    "`__global` variables cannot be declared in kernel code",
                );
                continue;
            }
            let ty = if d.is_pointer {
                // The address-space qualifier on a pointer declaration
                // qualifies the pointee, as in OpenCL C.
                Type::Pointer {
                    pointee: d.scalar,
                    space: d.space,
                    is_const: d.is_const,
                }
            } else {
                Type::Scalar(d.scalar)
            };
            // `const` scalars remain assignable through their initialiser
            // only; mark the local const when an initialiser exists.
            let init = decl.init.as_ref().map(|e| self.check_expr(e));
            let id = self.declare(
                decl.name.clone(),
                ty,
                d.is_const && !d.is_pointer,
                None,
                decl.span,
            );
            if let Some(Ok(init)) = init {
                if let Ok(value) = self.coerce(init, ty, decl.span) {
                    out.push(Stmt::Expr(Expr::Assign {
                        place: Place::Local(id),
                        value: Box::new(value),
                        ty,
                        span: decl.span,
                    }));
                }
            }
        }
    }

    fn check_array_decl(&mut self, d: &ast::VarDecl, decl: &ast::Declarator, size: &ast::Expr) {
        if d.space != AddressSpace::Local {
            self.diags.error(
                decl.span,
                "arrays are only supported in `__local` memory in SkelCL C",
            );
            return;
        }
        if !self.is_kernel {
            self.diags.error(
                decl.span,
                "`__local` arrays may only be declared inside kernel functions",
            );
            return;
        }
        if d.is_pointer {
            self.diags
                .error(decl.span, "arrays of pointers are not supported");
            return;
        }
        if decl.init.is_some() {
            self.diags
                .error(decl.span, "`__local` arrays cannot have initialisers");
            return;
        }
        let Ok(size_expr) = self.check_expr(size) else {
            return;
        };
        let Some(value) = hir::try_eval(&size_expr) else {
            self.diags.error(
                size.span(),
                "`__local` array size must be a compile-time constant",
            );
            return;
        };
        let len = match value {
            ConstValue::Int(v, _) if v > 0 => v as u64,
            ConstValue::Int(_, _) => {
                self.diags.error(size.span(), "array size must be positive");
                return;
            }
            _ => {
                self.diags
                    .error(size.span(), "array size must be an integer constant");
                return;
            }
        };
        let ty = Type::Pointer {
            pointee: d.scalar,
            space: AddressSpace::Local,
            is_const: false,
        };
        self.declare(
            decl.name.clone(),
            ty,
            true, // the array binding itself is not assignable
            Some(LocalArray {
                elem: d.scalar,
                len,
            }),
            decl.span,
        );
    }

    // ----- expressions ----------------------------------------------------

    /// Checks an expression used as a condition, converting to `bool`.
    fn check_condition(&mut self, e: &ast::Expr) -> CResult<Expr> {
        let checked = self.check_expr(e)?;
        self.coerce_to_bool(checked, e.span())
    }

    fn coerce_to_bool(&mut self, e: Expr, span: Span) -> CResult<Expr> {
        match e.ty() {
            Type::Scalar(ScalarType::Bool) => Ok(e),
            Type::Scalar(_) => Ok(Expr::Convert {
                to: ScalarType::Bool,
                expr: Box::new(e),
                span,
            }),
            other => {
                self.diags.error(
                    span,
                    format!("expected a scalar condition, found `{other}`"),
                );
                Err(())
            }
        }
    }

    /// Inserts an implicit conversion from `e` to `to`, or reports an error.
    fn coerce(&mut self, e: Expr, to: Type, span: Span) -> CResult<Expr> {
        let from = e.ty();
        if from == to {
            return Ok(e);
        }
        match (from, to) {
            (Type::Scalar(_), Type::Scalar(t)) => Ok(Expr::Convert {
                to: t,
                expr: Box::new(e),
                span,
            }),
            (
                Type::Pointer {
                    pointee: pf,
                    is_const: cf,
                    space: sf,
                },
                Type::Pointer {
                    pointee: pt,
                    is_const: ct,
                    space: st,
                },
            ) => {
                if pf != pt {
                    self.diags.error(
                        span,
                        format!("cannot convert `{from}` to `{to}`: element types differ"),
                    );
                    return Err(());
                }
                if cf && !ct {
                    self.diags.error(
                        span,
                        format!("cannot convert `{from}` to `{to}`: discards `const`"),
                    );
                    return Err(());
                }
                // Address spaces: an unqualified (generic) pointer converts
                // freely; explicit spaces must match.
                let compatible =
                    sf == st || sf == AddressSpace::Private || st == AddressSpace::Private;
                if !compatible {
                    self.diags.error(
                        span,
                        format!("cannot convert `{from}` to `{to}`: address spaces differ"),
                    );
                    return Err(());
                }
                // Pointer identity is preserved at runtime; the conversion is
                // purely a typing reinterpretation, so reuse the expression.
                Ok(retype_pointer(e, to))
            }
            _ => {
                self.diags
                    .error(span, format!("cannot convert `{from}` to `{to}`"));
                Err(())
            }
        }
    }

    fn check_expr(&mut self, e: &ast::Expr) -> CResult<Expr> {
        match e {
            ast::Expr::IntLit {
                value,
                unsigned,
                long,
                span,
            } => {
                let (v, ty) = classify_int_literal(*value, *unsigned, *long);
                Ok(Expr::Const {
                    value: ConstValue::Int(v, ty),
                    span: *span,
                })
            }
            ast::Expr::FloatLit {
                value,
                single,
                span,
            } => Ok(Expr::Const {
                value: if *single {
                    ConstValue::F32(*value as f32)
                } else {
                    ConstValue::F64(*value)
                },
                span: *span,
            }),
            ast::Expr::BoolLit { value, span } => Ok(Expr::Const {
                value: ConstValue::Bool(*value),
                span: *span,
            }),
            ast::Expr::CharLit { value, span } => Ok(Expr::Const {
                value: ConstValue::Int(*value as i64, ScalarType::Char),
                span: *span,
            }),
            ast::Expr::Ident { name, span } => {
                if let Some(id) = self.lookup(name) {
                    let ty = self.locals[id.0 as usize].ty;
                    return Ok(Expr::Local {
                        id,
                        ty,
                        span: *span,
                    });
                }
                if let Some(c) = predefined_constant(name) {
                    return Ok(Expr::Const {
                        value: ConstValue::Int(c as i64, ScalarType::Int),
                        span: *span,
                    });
                }
                self.diags
                    .error(*span, format!("use of undeclared identifier `{name}`"));
                Err(())
            }
            ast::Expr::Unary { op, expr, span } => self.check_unary(*op, expr, *span),
            ast::Expr::Binary { op, lhs, rhs, span } => self.check_binary(*op, lhs, rhs, *span),
            ast::Expr::Assign { op, lhs, rhs, span } => self.check_assign(*op, lhs, rhs, *span),
            ast::Expr::Ternary {
                cond,
                then_expr,
                else_expr,
                span,
            } => self.check_ternary(cond, then_expr, else_expr, *span),
            ast::Expr::Call {
                callee,
                callee_span,
                args,
                span,
            } => self.check_call(callee, *callee_span, args, *span),
            ast::Expr::Index { base, index, span } => {
                let ptr = self.check_index_ptr(base, index, *span)?;
                let Type::Pointer { pointee, .. } = ptr.ty() else {
                    unreachable!()
                };
                Ok(Expr::Load {
                    ptr: Box::new(ptr),
                    elem: pointee,
                    span: *span,
                })
            }
            ast::Expr::Cast { ty, expr, span } => {
                let inner = self.check_expr(expr)?;
                match (inner.ty(), *ty) {
                    (Type::Scalar(_), Type::Scalar(t)) => {
                        if inner.ty() == *ty {
                            Ok(inner)
                        } else {
                            Ok(Expr::Convert {
                                to: t,
                                expr: Box::new(inner),
                                span: *span,
                            })
                        }
                    }
                    (Type::Pointer { pointee: pf, .. }, Type::Pointer { pointee: pt, .. }) => {
                        if pf != pt {
                            self.diags
                                .error(*span, "pointer casts may not change the element type");
                            return Err(());
                        }
                        Ok(retype_pointer(inner, *ty))
                    }
                    (from, to) => {
                        self.diags
                            .error(*span, format!("invalid cast from `{from}` to `{to}`"));
                        Err(())
                    }
                }
            }
        }
    }

    fn check_unary(&mut self, op: ast::UnaryOp, operand: &ast::Expr, span: Span) -> CResult<Expr> {
        use ast::UnaryOp as U;
        match op {
            U::Plus | U::Neg => {
                let e = self.check_expr(operand)?;
                let Some(s) = e.ty().as_scalar() else {
                    self.diags.error(
                        span,
                        format!("cannot apply unary `{}` to `{}`", op.symbol(), e.ty()),
                    );
                    return Err(());
                };
                let promoted = if s.is_float() { s } else { integer_promote(s) };
                let e = self.coerce(e, Type::Scalar(promoted), span)?;
                if op == U::Plus {
                    Ok(e)
                } else {
                    Ok(Expr::Unary {
                        op: UnOp::Neg,
                        expr: Box::new(e),
                        ty: promoted,
                        span,
                    })
                }
            }
            U::Not => {
                let e = self.check_expr(operand)?;
                let e = self.coerce_to_bool(e, span)?;
                Ok(Expr::Unary {
                    op: UnOp::Not,
                    expr: Box::new(e),
                    ty: ScalarType::Bool,
                    span,
                })
            }
            U::BitNot => {
                let e = self.check_expr(operand)?;
                let Some(s) = e
                    .ty()
                    .as_scalar()
                    .filter(|s| s.is_integer() || *s == ScalarType::Bool)
                else {
                    self.diags.error(span, "`~` requires an integer operand");
                    return Err(());
                };
                let promoted = integer_promote(s);
                let e = self.coerce(e, Type::Scalar(promoted), span)?;
                Ok(Expr::Unary {
                    op: UnOp::BitNot,
                    expr: Box::new(e),
                    ty: promoted,
                    span,
                })
            }
            U::Deref => {
                let e = self.check_expr(operand)?;
                let Type::Pointer { pointee, .. } = e.ty() else {
                    self.diags
                        .error(span, format!("cannot dereference `{}`", e.ty()));
                    return Err(());
                };
                Ok(Expr::Load {
                    ptr: Box::new(e),
                    elem: pointee,
                    span,
                })
            }
            U::AddrOf => match operand {
                ast::Expr::Index { base, index, .. } => self.check_index_ptr(base, index, span),
                ast::Expr::Unary {
                    op: U::Deref, expr, ..
                } => {
                    let e = self.check_expr(expr)?;
                    if e.ty().is_pointer() {
                        Ok(e)
                    } else {
                        self.diags
                            .error(span, "cannot take the address of a non-pointer");
                        Err(())
                    }
                }
                _ => {
                    self.diags.error(
                        span,
                        "`&` is only supported on indexed or dereferenced pointers \
                         (private variables are not addressable)",
                    );
                    Err(())
                }
            },
            U::PreInc | U::PreDec | U::PostInc | U::PostDec => {
                let (place, ty) = self.check_place(operand)?;
                let ok = match ty {
                    Type::Scalar(s) => s != ScalarType::Bool,
                    Type::Pointer { .. } => true,
                    Type::Void => false,
                };
                if !ok {
                    self.diags.error(
                        span,
                        format!("cannot increment/decrement a value of type `{ty}`"),
                    );
                    return Err(());
                }
                Ok(Expr::IncDec {
                    place,
                    ty,
                    is_inc: matches!(op, U::PreInc | U::PostInc),
                    is_post: matches!(op, U::PostInc | U::PostDec),
                    span,
                })
            }
        }
    }

    fn check_binary(
        &mut self,
        op: ast::BinaryOp,
        lhs: &ast::Expr,
        rhs: &ast::Expr,
        span: Span,
    ) -> CResult<Expr> {
        use ast::BinaryOp as B;
        if op.is_logical() {
            let l = self.check_condition(lhs)?;
            let r = self.check_condition(rhs)?;
            return Ok(Expr::Logical {
                is_and: op == B::LogicalAnd,
                lhs: Box::new(l),
                rhs: Box::new(r),
                span,
            });
        }

        let l = self.check_expr(lhs)?;
        let r = self.check_expr(rhs)?;

        // Pointer arithmetic and comparison.
        if l.ty().is_pointer() || r.ty().is_pointer() {
            return self.check_pointer_binary(op, l, r, span);
        }

        let (Some(ls), Some(rs)) = (l.ty().as_scalar(), r.ty().as_scalar()) else {
            self.diags
                .error(span, format!("invalid operands to `{}`", op.symbol()));
            return Err(());
        };

        if op.is_comparison() {
            let common = usual_arithmetic_conversion(ls, rs);
            let l = self.coerce(l, Type::Scalar(common), span)?;
            let r = self.coerce(r, Type::Scalar(common), span)?;
            return Ok(Expr::Compare {
                op: cmp_op(op),
                lhs: Box::new(l),
                rhs: Box::new(r),
                operand_ty: Some(common),
                span,
            });
        }

        if op.integer_only() && (ls.is_float() || rs.is_float()) {
            self.diags.error(
                span,
                format!("operator `{}` requires integer operands", op.symbol()),
            );
            return Err(());
        }

        // Shifts take the promoted left type, like C.
        let common = if matches!(op, B::Shl | B::Shr) {
            integer_promote(ls)
        } else {
            usual_arithmetic_conversion(ls, rs)
        };
        let l = self.coerce(l, Type::Scalar(common), span)?;
        let r = self.coerce(r, Type::Scalar(common), span)?;
        Ok(Expr::Binary {
            op: bin_op(op),
            lhs: Box::new(l),
            rhs: Box::new(r),
            ty: common,
            span,
        })
    }

    fn check_pointer_binary(
        &mut self,
        op: ast::BinaryOp,
        l: Expr,
        r: Expr,
        span: Span,
    ) -> CResult<Expr> {
        use ast::BinaryOp as B;
        match (l.ty(), r.ty(), op) {
            (Type::Pointer { .. }, Type::Pointer { pointee: rp, .. }, B::Sub) => {
                let Type::Pointer { pointee: lp, .. } = l.ty() else {
                    unreachable!()
                };
                if lp != rp {
                    self.diags
                        .error(span, "cannot subtract pointers to different element types");
                    return Err(());
                }
                Ok(Expr::PtrDiff {
                    lhs: Box::new(l),
                    rhs: Box::new(r),
                    span,
                })
            }
            (Type::Pointer { .. }, Type::Pointer { .. }, cmp) if cmp.is_comparison() => {
                Ok(Expr::Compare {
                    op: cmp_op(cmp),
                    lhs: Box::new(l),
                    rhs: Box::new(r),
                    operand_ty: None,
                    span,
                })
            }
            (Type::Pointer { .. }, Type::Scalar(s), B::Add | B::Sub)
                if s.is_integer() || s == ScalarType::Bool =>
            {
                let ty = l.ty();
                let mut off = self.coerce(r, Type::Scalar(ScalarType::Long), span)?;
                if op == B::Sub {
                    off = Expr::Unary {
                        op: UnOp::Neg,
                        expr: Box::new(off),
                        ty: ScalarType::Long,
                        span,
                    };
                }
                Ok(Expr::PtrOffset {
                    ptr: Box::new(l),
                    offset: Box::new(off),
                    ty,
                    span,
                })
            }
            (Type::Scalar(s), Type::Pointer { .. }, B::Add)
                if s.is_integer() || s == ScalarType::Bool =>
            {
                let ty = r.ty();
                let off = self.coerce(l, Type::Scalar(ScalarType::Long), span)?;
                Ok(Expr::PtrOffset {
                    ptr: Box::new(r),
                    offset: Box::new(off),
                    ty,
                    span,
                })
            }
            _ => {
                self.diags.error(
                    span,
                    format!(
                        "invalid operands to `{}`: `{}` and `{}`",
                        op.symbol(),
                        l.ty(),
                        r.ty()
                    ),
                );
                Err(())
            }
        }
    }

    fn check_assign(
        &mut self,
        op: Option<ast::BinaryOp>,
        lhs: &ast::Expr,
        rhs: &ast::Expr,
        span: Span,
    ) -> CResult<Expr> {
        let (place, ty) = self.check_place(lhs)?;
        let value = match op {
            None => {
                let r = self.check_expr(rhs)?;
                self.coerce(r, ty, span)?
            }
            Some(bop) => {
                // Lower `a op= b` to `a = a op b`, re-reading the place.
                let current = self.place_to_expr(&place, ty, lhs.span());
                let combined = self.check_binary_hir(bop, current, rhs, span)?;
                self.coerce(combined, ty, span)?
            }
        };
        Ok(Expr::Assign {
            place,
            value: Box::new(value),
            ty,
            span,
        })
    }

    /// Checks `lhs_hir op rhs_ast` where the left side is already lowered
    /// (used for compound assignment).
    fn check_binary_hir(
        &mut self,
        op: ast::BinaryOp,
        l: Expr,
        rhs: &ast::Expr,
        span: Span,
    ) -> CResult<Expr> {
        use ast::BinaryOp as B;
        let r = self.check_expr(rhs)?;
        if l.ty().is_pointer() || r.ty().is_pointer() {
            return self.check_pointer_binary(op, l, r, span);
        }
        let (Some(ls), Some(rs)) = (l.ty().as_scalar(), r.ty().as_scalar()) else {
            self.diags
                .error(span, format!("invalid operands to `{}`", op.symbol()));
            return Err(());
        };
        if op.integer_only() && (ls.is_float() || rs.is_float()) {
            self.diags.error(
                span,
                format!("operator `{}` requires integer operands", op.symbol()),
            );
            return Err(());
        }
        let common = if matches!(op, B::Shl | B::Shr) {
            integer_promote(ls)
        } else {
            usual_arithmetic_conversion(ls, rs)
        };
        let l = self.coerce(l, Type::Scalar(common), span)?;
        let r = self.coerce(r, Type::Scalar(common), span)?;
        Ok(Expr::Binary {
            op: bin_op(op),
            lhs: Box::new(l),
            rhs: Box::new(r),
            ty: common,
            span,
        })
    }

    fn place_to_expr(&self, place: &Place, ty: Type, span: Span) -> Expr {
        match place {
            Place::Local(id) => Expr::Local { id: *id, ty, span },
            Place::Deref { ptr, elem } => Expr::Load {
                ptr: ptr.clone(),
                elem: *elem,
                span,
            },
        }
    }

    fn check_place(&mut self, e: &ast::Expr) -> CResult<(Place, Type)> {
        match e {
            ast::Expr::Ident { name, span } => {
                let Some(id) = self.lookup(name) else {
                    self.diags
                        .error(*span, format!("use of undeclared identifier `{name}`"));
                    return Err(());
                };
                let decl = &self.locals[id.0 as usize];
                if decl.local_array.is_some() {
                    self.diags.error(
                        *span,
                        format!("`{name}` is an array and cannot be assigned"),
                    );
                    return Err(());
                }
                if decl.is_const {
                    self.diags
                        .error(*span, format!("cannot assign to `const` variable `{name}`"));
                    return Err(());
                }
                Ok((Place::Local(id), decl.ty))
            }
            ast::Expr::Index { base, index, span } => {
                let ptr = self.check_index_ptr(base, index, *span)?;
                let Type::Pointer {
                    pointee, is_const, ..
                } = ptr.ty()
                else {
                    unreachable!()
                };
                if is_const {
                    self.diags
                        .error(*span, "cannot store through a `const` pointer");
                    return Err(());
                }
                Ok((
                    Place::Deref {
                        ptr: Box::new(ptr),
                        elem: pointee,
                    },
                    Type::Scalar(pointee),
                ))
            }
            ast::Expr::Unary {
                op: ast::UnaryOp::Deref,
                expr,
                span,
            } => {
                let ptr = self.check_expr(expr)?;
                let Type::Pointer {
                    pointee, is_const, ..
                } = ptr.ty()
                else {
                    self.diags
                        .error(*span, format!("cannot dereference `{}`", ptr.ty()));
                    return Err(());
                };
                if is_const {
                    self.diags
                        .error(*span, "cannot store through a `const` pointer");
                    return Err(());
                }
                Ok((
                    Place::Deref {
                        ptr: Box::new(ptr),
                        elem: pointee,
                    },
                    Type::Scalar(pointee),
                ))
            }
            other => {
                self.diags
                    .error(other.span(), "expression is not assignable");
                Err(())
            }
        }
    }

    /// Lowers `base[index]` to the pointer expression `base + index`.
    fn check_index_ptr(
        &mut self,
        base: &ast::Expr,
        index: &ast::Expr,
        span: Span,
    ) -> CResult<Expr> {
        let b = self.check_expr(base)?;
        let ty = b.ty();
        if !ty.is_pointer() {
            self.diags
                .error(span, format!("cannot index a value of type `{ty}`"));
            return Err(());
        }
        let i = self.check_expr(index)?;
        let Some(s) = i
            .ty()
            .as_scalar()
            .filter(|s| s.is_integer() || *s == ScalarType::Bool)
        else {
            self.diags
                .error(index.span(), "array index must be an integer");
            return Err(());
        };
        let _ = s;
        let i = self.coerce(i, Type::Scalar(ScalarType::Long), span)?;
        Ok(Expr::PtrOffset {
            ptr: Box::new(b),
            offset: Box::new(i),
            ty,
            span,
        })
    }

    fn check_ternary(
        &mut self,
        cond: &ast::Expr,
        t: &ast::Expr,
        f: &ast::Expr,
        span: Span,
    ) -> CResult<Expr> {
        let cond = self.check_condition(cond)?;
        let te = self.check_expr(t)?;
        let fe = self.check_expr(f)?;
        let ty = match (te.ty(), fe.ty()) {
            (a, b) if a == b => a,
            (Type::Scalar(a), Type::Scalar(b)) => Type::Scalar(usual_arithmetic_conversion(a, b)),
            (a, b) => {
                self.diags.error(
                    span,
                    format!("incompatible ternary branch types `{a}` and `{b}`"),
                );
                return Err(());
            }
        };
        let te = self.coerce(te, ty, span)?;
        let fe = self.coerce(fe, ty, span)?;
        Ok(Expr::Ternary {
            cond: Box::new(cond),
            then_expr: Box::new(te),
            else_expr: Box::new(fe),
            ty,
            span,
        })
    }

    fn check_call(
        &mut self,
        callee: &str,
        callee_span: Span,
        args: &[ast::Expr],
        span: Span,
    ) -> CResult<Expr> {
        if self.lookup(callee).is_some() {
            self.diags.error(
                callee_span,
                format!("`{callee}` is a variable, not a function"),
            );
            return Err(());
        }
        if let Some(b) = Builtin::resolve(callee) {
            return self.check_builtin_call(b, args, span);
        }
        let Some(&func) = self.by_name.get(callee) else {
            self.diags.error(
                callee_span,
                format!("call to undefined function `{callee}`"),
            );
            return Err(());
        };
        let sig = &self.sigs[func.0 as usize];
        if sig.is_kernel {
            self.diags.error(
                callee_span,
                format!("kernel `{callee}` cannot be called from kernel code"),
            );
            return Err(());
        }
        if args.len() != sig.params.len() {
            self.diags.error(
                span,
                format!(
                    "`{callee}` expects {} argument(s), found {}",
                    sig.params.len(),
                    args.len()
                ),
            );
            return Err(());
        }
        let params: Vec<Type> = sig.params.clone();
        let ret = sig.return_type;
        let mut lowered = Vec::with_capacity(args.len());
        for (a, &pty) in args.iter().zip(&params) {
            let e = self.check_expr(a)?;
            lowered.push(self.coerce(e, pty, a.span())?);
        }
        self.calls.push(func);
        Ok(Expr::Call {
            func,
            args: lowered,
            ty: ret,
            span,
        })
    }

    fn check_builtin_call(&mut self, b: Builtin, args: &[ast::Expr], span: Span) -> CResult<Expr> {
        if args.len() != b.arity() {
            self.diags.error(
                span,
                format!(
                    "`{}` expects {} argument(s), found {}",
                    b.name(),
                    b.arity(),
                    args.len()
                ),
            );
            return Err(());
        }
        let mut lowered: Vec<Expr> = Vec::with_capacity(args.len());
        for a in args {
            lowered.push(self.check_expr(a)?);
        }
        let scalar_of = |this: &mut Self, e: &Expr, what: &str| -> CResult<ScalarType> {
            match e.ty().as_scalar() {
                Some(s) => Ok(s),
                None => {
                    this.diags.error(
                        e.span(),
                        format!("`{}` requires scalar arguments ({what})", b.name()),
                    );
                    Err(())
                }
            }
        };
        let ty = match b.kind() {
            BuiltinKind::WorkItemQuery => {
                let a = lowered.pop().expect("arity checked");
                lowered.push(self.coerce(a, Type::Scalar(ScalarType::UInt), span)?);
                Type::Scalar(WORK_ITEM_QUERY_RESULT)
            }
            BuiltinKind::WorkDim => Type::Scalar(ScalarType::UInt),
            BuiltinKind::Barrier | BuiltinKind::Trap => {
                let a = lowered.pop().expect("arity checked");
                lowered.push(self.coerce(a, Type::Scalar(ScalarType::Int), span)?);
                Type::Void
            }
            BuiltinKind::TrapValue => {
                let a = lowered.pop().expect("arity checked");
                lowered.push(self.coerce(a, Type::Scalar(ScalarType::Int), span)?);
                Type::Scalar(ScalarType::Int)
            }
            BuiltinKind::FloatUnary | BuiltinKind::FloatBinary => {
                let mut common = ScalarType::Float;
                for e in &lowered {
                    if scalar_of(self, e, "float math")? == ScalarType::Double {
                        common = ScalarType::Double;
                    }
                }
                for e in &mut lowered {
                    let taken = std::mem::replace(
                        e,
                        Expr::Const {
                            value: ConstValue::Bool(false),
                            span,
                        },
                    );
                    *e = self.coerce(taken, Type::Scalar(common), span)?;
                }
                Type::Scalar(common)
            }
            BuiltinKind::GenUnary => {
                let s = scalar_of(self, &lowered[0], "abs")?;
                let target = if s == ScalarType::Bool {
                    ScalarType::Int
                } else {
                    s
                };
                let a = lowered.pop().expect("arity checked");
                lowered.push(self.coerce(a, Type::Scalar(target), span)?);
                Type::Scalar(target)
            }
            BuiltinKind::GenBinary | BuiltinKind::GenTernary => {
                let mut common = scalar_of(self, &lowered[0], "operands")?;
                for e in &lowered[1..] {
                    common = usual_arithmetic_conversion(common, scalar_of(self, e, "operands")?);
                }
                for e in &mut lowered {
                    let taken = std::mem::replace(
                        e,
                        Expr::Const {
                            value: ConstValue::Bool(false),
                            span,
                        },
                    );
                    *e = self.coerce(taken, Type::Scalar(common), span)?;
                }
                Type::Scalar(common)
            }
        };
        Ok(Expr::BuiltinCall {
            builtin: b,
            args: lowered,
            ty,
            span,
        })
    }
}

/// Re-types a pointer-valued expression (pointer identity is dynamic, so
/// only the static type changes).
fn retype_pointer(e: Expr, to: Type) -> Expr {
    match e {
        Expr::Local { id, span, .. } => Expr::Local { id, ty: to, span },
        Expr::PtrOffset {
            ptr, offset, span, ..
        } => Expr::PtrOffset {
            ptr,
            offset,
            ty: to,
            span,
        },
        Expr::Ternary {
            cond,
            then_expr,
            else_expr,
            span,
            ..
        } => Expr::Ternary {
            cond,
            then_expr: Box::new(retype_pointer(*then_expr, to)),
            else_expr: Box::new(retype_pointer(*else_expr, to)),
            ty: to,
            span,
        },
        Expr::Call {
            func, args, span, ..
        } => Expr::Call {
            func,
            args,
            ty: to,
            span,
        },
        Expr::Assign {
            place, value, span, ..
        } => Expr::Assign {
            place,
            value,
            ty: to,
            span,
        },
        Expr::IncDec {
            place,
            is_inc,
            is_post,
            span,
            ..
        } => Expr::IncDec {
            place,
            ty: to,
            is_inc,
            is_post,
            span,
        },
        other => other,
    }
}

/// Selects the type of an integer literal: the smallest of `int`/`long`
/// (honouring `u`/`l` suffixes) that fits.
fn classify_int_literal(value: u64, unsigned: bool, long: bool) -> (i64, ScalarType) {
    use ScalarType::*;
    let ty = match (unsigned, long) {
        (false, false) => {
            if value <= i32::MAX as u64 {
                Int
            } else if value <= i64::MAX as u64 {
                Long
            } else {
                ULong
            }
        }
        (true, false) => {
            if value <= u32::MAX as u64 {
                UInt
            } else {
                ULong
            }
        }
        (false, true) => {
            if value <= i64::MAX as u64 {
                Long
            } else {
                ULong
            }
        }
        (true, true) => ULong,
    };
    (value as i64, ty)
}

fn bin_op(op: ast::BinaryOp) -> BinOp {
    use ast::BinaryOp as B;
    match op {
        B::Add => BinOp::Add,
        B::Sub => BinOp::Sub,
        B::Mul => BinOp::Mul,
        B::Div => BinOp::Div,
        B::Rem => BinOp::Rem,
        B::BitAnd => BinOp::BitAnd,
        B::BitOr => BinOp::BitOr,
        B::BitXor => BinOp::BitXor,
        B::Shl => BinOp::Shl,
        B::Shr => BinOp::Shr,
        other => panic!("not a value operator: {other:?}"),
    }
}

fn cmp_op(op: ast::BinaryOp) -> CmpOp {
    use ast::BinaryOp as B;
    match op {
        B::Lt => CmpOp::Lt,
        B::Le => CmpOp::Le,
        B::Gt => CmpOp::Gt,
        B::Ge => CmpOp::Ge,
        B::Eq => CmpOp::Eq,
        B::Ne => CmpOp::Ne,
        other => panic!("not a comparison operator: {other:?}"),
    }
}

/// Conservative "all paths return" analysis used for the missing-return
/// warning.
fn stmts_definitely_return(stmts: &[Stmt]) -> bool {
    stmts.iter().any(stmt_definitely_returns)
}

fn stmt_definitely_returns(s: &Stmt) -> bool {
    match s {
        Stmt::Return(_) => true,
        Stmt::If {
            then_branch,
            else_branch,
            ..
        } => stmts_definitely_return(then_branch) && stmts_definitely_return(else_branch),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::source::SourceFile;

    fn analyze_src(src: &str) -> Result<Unit, String> {
        let f = SourceFile::new("t.cl", src);
        let mut d = Diagnostics::new();
        let tu = parse(&f, &mut d);
        if d.has_errors() {
            return Err(d.render(&f));
        }
        match analyze(&tu, &mut d) {
            Some(u) => Ok(u),
            None => Err(d.render(&f)),
        }
    }

    fn expect_ok(src: &str) -> Unit {
        analyze_src(src).unwrap_or_else(|e| panic!("unexpected sema errors:\n{e}"))
    }

    fn expect_err(src: &str, needle: &str) {
        let err = analyze_src(src).expect_err("expected sema errors");
        assert!(err.contains(needle), "expected `{needle}` in:\n{err}");
    }

    #[test]
    fn paper_negation_function() {
        let u = expect_ok("float func(float x){ return -x; }");
        let (_, f) = u.function("func").unwrap();
        assert_eq!(f.return_type, Type::scalar(ScalarType::Float));
        assert_eq!(f.param_count, 1);
        assert!(matches!(f.body[0], Stmt::Return(Some(_))));
    }

    #[test]
    fn implicit_conversions_inserted() {
        let u = expect_ok("float func(float x, int n){ return x + n; }");
        let (_, f) = u.function("func").unwrap();
        let Stmt::Return(Some(Expr::Binary { ty, rhs, .. })) = &f.body[0] else {
            panic!()
        };
        assert_eq!(*ty, ScalarType::Float);
        assert!(matches!(
            **rhs,
            Expr::Convert {
                to: ScalarType::Float,
                ..
            }
        ));
    }

    #[test]
    fn char_arithmetic_promotes_to_int() {
        let u = expect_ok("int f(char a, char b){ return a + b; }");
        let (_, f) = u.function("f").unwrap();
        let Stmt::Return(Some(Expr::Binary { ty, .. })) = &f.body[0] else {
            panic!()
        };
        assert_eq!(*ty, ScalarType::Int);
    }

    #[test]
    fn undeclared_identifier() {
        expect_err("float f(float x){ return y; }", "undeclared identifier `y`");
    }

    #[test]
    fn redefinition_of_variable() {
        expect_err("void f(){ int x; float x; }", "redefinition of `x`");
    }

    #[test]
    fn shadowing_in_inner_scope_is_allowed() {
        expect_ok("int f(int x){ { int y = x; { int y2 = y; float y3 = 0.0f; } } return x; }");
        expect_ok("int f(int x){ for (int i = 0; i < 3; ++i) { int x2 = x; } return x; }");
    }

    #[test]
    fn kernel_rules() {
        expect_err("__kernel int k(){ return 0; }", "must return `void`");
        expect_err(
            "__kernel void k(int* p){ }",
            "must be `__global` or `__local`",
        );
        expect_ok("__kernel void k(__global float* p, int n){ }");
        expect_err(
            "__kernel void k(__global int* p){ } void f(){ k(0); }",
            "cannot be called",
        );
    }

    #[test]
    fn recursion_rejected() {
        expect_err(
            "int f(int x){ return f(x - 1); }",
            "recursion is not allowed",
        );
        expect_err(
            "int g(int x){ return h(x); } int h(int x){ return g(x); }",
            "recursion is not allowed",
        );
    }

    #[test]
    fn forward_reference_is_allowed() {
        expect_ok("int f(int x){ return g(x) + 1; } int g(int x){ return x * 2; }");
    }

    #[test]
    fn local_array_rules() {
        expect_ok("__kernel void k(){ __local float tile[16 * 16]; tile[0] = 1.0f; }");
        expect_err(
            "void f(){ __local float tile[4]; }",
            "may only be declared inside kernel",
        );
        expect_err(
            "__kernel void k(int n){ __local float t[n]; }",
            "compile-time constant",
        );
        expect_err(
            "__kernel void k(){ __local float t[0]; }",
            "must be positive",
        );
        expect_err(
            "__kernel void k(){ float t[4]; }",
            "only supported in `__local` memory",
        );
        expect_err(
            "__kernel void k(){ __local int x; }",
            "only `__local` arrays",
        );
        expect_err(
            "__kernel void k(){ __local float t[2]; t = t; }",
            "array and cannot be assigned",
        );
    }

    #[test]
    fn const_rules() {
        expect_err(
            "void f(){ const int x = 1; x = 2; }",
            "cannot assign to `const`",
        );
        expect_err(
            "void f(const float* p){ p[0] = 1.0f; }",
            "cannot store through a `const` pointer",
        );
        expect_err(
            "void f(const float* p, float* q){ q = p; }",
            "discards `const`",
        );
        expect_ok("void f(const float* p, float x){ x = p[0]; }");
    }

    #[test]
    fn pointer_arithmetic_lowering() {
        let u = expect_ok("float f(__global float* a, int i){ return *(a + i) + a[i + 1]; }");
        let (_, f) = u.function("f").unwrap();
        let Stmt::Return(Some(Expr::Binary { lhs, rhs, .. })) = &f.body[0] else {
            panic!()
        };
        assert!(matches!(**lhs, Expr::Load { .. }));
        assert!(matches!(**rhs, Expr::Load { .. }));
    }

    #[test]
    fn pointer_difference() {
        let u = expect_ok("long f(__global float* a, __global float* b){ return a - b; }");
        let (_, f) = u.function("f").unwrap();
        assert!(matches!(
            f.body[0],
            Stmt::Return(Some(Expr::PtrDiff { .. }))
        ));
        expect_err(
            "long f(__global float* a, __global int* b){ return a - b; }",
            "different element types",
        );
    }

    #[test]
    fn address_of_row_pointer() {
        expect_ok(
            "float g(const float* row){ return row[0]; }
             float f(__global float* a, int i){ return g(&a[i * 4]); }",
        );
        expect_err("int f(int x){ int* p = &x; return *p; }", "not addressable");
    }

    #[test]
    fn generic_pointer_accepts_global() {
        expect_ok(
            "float sum3(const float* p){ return p[0] + p[1] + p[2]; }
             __kernel void k(__global float* data, __global float* out){
                 int i = (int)get_global_id(0);
                 out[i] = sum3(&data[i]);
             }",
        );
    }

    #[test]
    fn explicit_space_mismatch_rejected() {
        expect_err(
            "__kernel void k(__global float* g){ __local float t[4]; __global float* p = t; }",
            "address spaces differ",
        );
    }

    #[test]
    fn builtin_calls() {
        let u = expect_ok(
            "__kernel void k(__global float* o){
                int i = (int)get_global_id(0);
                o[i] = sqrt((float)i) + fmax(1.0f, 2.0f);
                barrier(CLK_LOCAL_MEM_FENCE);
            }",
        );
        assert_eq!(u.functions.len(), 1);
        expect_err("void f(){ sqrt(1.0f, 2.0f); }", "expects 1 argument");
        expect_err(
            "float f(float x){ float sqrt = x; return sqrt(x); }",
            "is a variable",
        );
        expect_err(
            "float sqrt(float x){ return x; }",
            "cannot redefine builtin",
        );
    }

    #[test]
    fn float_builtin_promotes_to_double() {
        let u = expect_ok("double f(double x){ return sin(x); }");
        let (_, f) = u.function("f").unwrap();
        let Stmt::Return(Some(Expr::BuiltinCall { ty, .. })) = &f.body[0] else {
            panic!()
        };
        assert_eq!(*ty, Type::scalar(ScalarType::Double));
        let u = expect_ok("float f(int x){ return sin(x); }");
        let (_, f) = u.function("f").unwrap();
        let Stmt::Return(Some(Expr::Convert { .. })) = &f.body[0] else {
            // sin(int) is float; returning as float requires no conversion.
            let Stmt::Return(Some(Expr::BuiltinCall { ty, .. })) = &f.body[0] else {
                panic!()
            };
            assert_eq!(*ty, Type::scalar(ScalarType::Float));
            return;
        };
    }

    #[test]
    fn work_item_query_types() {
        let u = expect_ok("__kernel void k(__global int* o){ o[get_global_id(0)] = 1; }");
        let (_, f) = u.function("k").unwrap();
        assert!(f.is_kernel);
    }

    #[test]
    fn loops_lowered() {
        let u = expect_ok(
            "int f(int n){
                int s = 0;
                for (int i = 0; i < n; ++i) { if (i == 3) continue; s += i; }
                while (s > 100) s -= 1;
                do { s += 1; } while (s < 0);
                return s;
            }",
        );
        let (_, f) = u.function("f").unwrap();
        let loops = f
            .body
            .iter()
            .filter(|s| matches!(s, Stmt::Loop { .. }))
            .count();
        assert_eq!(loops, 3);
    }

    #[test]
    fn break_continue_outside_loop() {
        expect_err("void f(){ break; }", "`break` outside of a loop");
        expect_err("void f(){ continue; }", "`continue` outside of a loop");
    }

    #[test]
    fn return_type_checks() {
        expect_err(
            "void f(){ return 1; }",
            "void function cannot return a value",
        );
        expect_err("int f(){ return; }", "must return a value");
        let u = expect_ok("float f(){ return 1; }");
        let (_, f) = u.function("f").unwrap();
        let Stmt::Return(Some(e)) = &f.body[0] else {
            panic!()
        };
        assert_eq!(e.ty(), Type::scalar(ScalarType::Float));
    }

    #[test]
    fn missing_return_warns_but_compiles() {
        let f = SourceFile::new("t.cl", "int f(int x){ if (x > 0) return 1; }");
        let mut d = Diagnostics::new();
        let tu = parse(&f, &mut d);
        let unit = analyze(&tu, &mut d);
        assert!(unit.is_some());
        assert!(!d.has_errors());
        assert!(d.render(&f).contains("control may reach the end"));
    }

    #[test]
    fn ternary_type_unification() {
        let u = expect_ok("float f(int c, float a, int b){ return c ? a : b; }");
        let (_, f) = u.function("f").unwrap();
        let Stmt::Return(Some(Expr::Ternary { ty, .. })) = &f.body[0] else {
            panic!()
        };
        assert_eq!(*ty, Type::scalar(ScalarType::Float));
        expect_err(
            "void f(__global float* p, int c){ float x = c ? p : 1.0f; }",
            "incompatible ternary branch types",
        );
    }

    #[test]
    fn compound_assignment_reads_place() {
        let u = expect_ok("void f(__global float* p, int i){ p[i] += 2.0f; }");
        let (_, f) = u.function("f").unwrap();
        let Stmt::Expr(Expr::Assign {
            place: Place::Deref { .. },
            value,
            ..
        }) = &f.body[0]
        else {
            panic!()
        };
        assert!(matches!(**value, Expr::Binary { op: BinOp::Add, .. }));
    }

    #[test]
    fn incdec_on_pointer_and_int() {
        expect_ok("void f(__global float* p, int i){ p++; --i; i++; }");
        expect_err("void f(bool b){ b++; }", "cannot increment");
    }

    #[test]
    fn integer_only_operators() {
        expect_err(
            "float f(float a){ return a % 2.0f; }",
            "requires integer operands",
        );
        expect_err(
            "float f(float a){ return a << 1; }",
            "requires integer operands",
        );
        expect_ok("int f(int a){ return (a % 3) ^ (a & 1) | (a << 2) >> 1; }");
    }

    #[test]
    fn literal_classification() {
        let u =
            expect_ok("void f(){ long a = 3000000000; int b = 5; ulong c = 0xFFFFFFFFFFFFFFFF; }");
        let (_, f) = u.function("f").unwrap();
        // `a` initialiser: literal 3000000000 doesn't fit in int -> Long.
        let Stmt::Expr(Expr::Assign { value, .. }) = &f.body[0] else {
            panic!()
        };
        assert_eq!(value.ty(), Type::scalar(ScalarType::Long));
    }

    #[test]
    fn duplicate_function_rejected() {
        expect_err("void f(){ } void f(){ }", "redefinition of function `f`");
    }

    #[test]
    fn call_arity_checked() {
        expect_err(
            "int g(int a, int b){ return a + b; } int f(){ return g(1); }",
            "expects 2 argument(s), found 1",
        );
        expect_err(
            "int f(){ return nothere(); }",
            "undefined function `nothere`",
        );
    }

    #[test]
    fn logical_operators_yield_bool() {
        let u = expect_ok("bool f(int a, float b){ return a && b || !a; }");
        let (_, f) = u.function("f").unwrap();
        let Stmt::Return(Some(e)) = &f.body[0] else {
            panic!()
        };
        assert_eq!(e.ty(), Type::scalar(ScalarType::Bool));
    }

    #[test]
    fn pointer_condition_rejected() {
        expect_err(
            "void f(__global int* p){ if (p) { } }",
            "expected a scalar condition",
        );
    }
}
