//! Typed high-level IR produced by semantic analysis.
//!
//! Compared to the AST, the HIR:
//!
//! * resolves every identifier to a local slot, function id or builtin;
//! * annotates every expression with its [`Type`];
//! * makes all implicit conversions explicit ([`Expr::Convert`]);
//! * lowers `for`/`while`/`do-while` to a single loop form;
//! * turns pointer arithmetic and indexing into explicit [`Expr::PtrOffset`]
//!   and [`Expr::Load`]/[`Place::Deref`] nodes.

use crate::builtins::{self, Builtin};
use crate::source::Span;
use crate::types::{ScalarType, Type};
use crate::value::{self, Value};

/// Index of a local variable (including parameters) within a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LocalId(pub u32);

/// Index of a function within a [`Unit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub u32);

/// A fully type-checked translation unit.
#[derive(Debug, Clone)]
pub struct Unit {
    /// Functions, indexable by [`FuncId`].
    pub functions: Vec<Function>,
}

impl Unit {
    /// Looks up a function by name.
    pub fn function(&self, name: &str) -> Option<(FuncId, &Function)> {
        self.functions
            .iter()
            .enumerate()
            .find(|(_, f)| f.name == name)
            .map(|(i, f)| (FuncId(i as u32), f))
    }

    /// The function for an id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn func(&self, id: FuncId) -> &Function {
        &self.functions[id.0 as usize]
    }
}

/// A type-checked function.
#[derive(Debug, Clone)]
pub struct Function {
    /// Whether declared `__kernel`.
    pub is_kernel: bool,
    /// Function name.
    pub name: String,
    /// Return type.
    pub return_type: Type,
    /// Number of leading entries in [`Self::locals`] that are parameters.
    pub param_count: usize,
    /// Every local variable (parameters first, then declarations in order).
    pub locals: Vec<LocalDecl>,
    /// Lowered body.
    pub body: Vec<Stmt>,
    /// Source span of the definition.
    pub span: Span,
}

impl Function {
    /// The declared parameters.
    pub fn params(&self) -> &[LocalDecl] {
        &self.locals[..self.param_count]
    }

    /// Iterates over local `__local` array declarations (kernel local
    /// memory), in declaration order.
    pub fn local_arrays(&self) -> impl Iterator<Item = (LocalId, &LocalDecl)> {
        self.locals
            .iter()
            .enumerate()
            .filter(|(_, l)| l.local_array.is_some())
            .map(|(i, l)| (LocalId(i as u32), l))
    }
}

/// A declared local variable or parameter.
#[derive(Debug, Clone)]
pub struct LocalDecl {
    /// Variable name (for diagnostics and debugging).
    pub name: String,
    /// The variable's type. For `__local` arrays this is the decayed
    /// local-memory pointer type.
    pub ty: Type,
    /// Whether the variable was declared `const`.
    pub is_const: bool,
    /// For `__local T name[N];` declarations: the element type and constant
    /// length. The VM binds the slot to a pointer into local memory.
    pub local_array: Option<LocalArray>,
    /// Declaration site.
    pub span: Span,
}

/// Metadata of a `__local` array declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalArray {
    /// Element type.
    pub elem: ScalarType,
    /// Compile-time constant element count.
    pub len: u64,
}

/// A lowered statement.
#[derive(Debug, Clone)]
pub enum Stmt {
    /// Evaluate an expression for its side effects.
    Expr(Expr),
    /// Two-armed conditional (empty `else` allowed).
    If {
        /// Boolean condition.
        cond: Expr,
        /// Statements when true.
        then_branch: Vec<Stmt>,
        /// Statements when false.
        else_branch: Vec<Stmt>,
    },
    /// Unified loop covering `for`, `while` and `do-while`.
    Loop {
        /// Boolean condition, tested before each iteration (after the first
        /// when `test_at_end`).
        cond: Expr,
        /// Loop body.
        body: Vec<Stmt>,
        /// Step expression executed after the body and on `continue`
        /// (from `for` loops).
        step: Option<Expr>,
        /// `true` for `do-while`.
        test_at_end: bool,
    },
    /// Exit the innermost loop.
    Break,
    /// Jump to the innermost loop's step/condition.
    Continue,
    /// Return from the function.
    Return(Option<Expr>),
}

/// A compile-time constant scalar.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConstValue {
    /// A boolean.
    Bool(bool),
    /// Any integer type; the payload is the sign-extended value and the
    /// `ScalarType` the constant has.
    Int(i64, ScalarType),
    /// `float`.
    F32(f32),
    /// `double`.
    F64(f64),
}

impl ConstValue {
    /// The scalar type of the constant.
    pub fn scalar_type(&self) -> ScalarType {
        match self {
            ConstValue::Bool(_) => ScalarType::Bool,
            ConstValue::Int(_, t) => *t,
            ConstValue::F32(_) => ScalarType::Float,
            ConstValue::F64(_) => ScalarType::Double,
        }
    }
}

/// An assignable location.
#[derive(Debug, Clone)]
pub enum Place {
    /// A local variable slot.
    Local(LocalId),
    /// A store through a pointer: `*ptr` where `ptr` evaluates to a pointer
    /// to `elem`.
    Deref {
        /// Pointer expression.
        ptr: Box<Expr>,
        /// Element type stored through the pointer.
        elem: ScalarType,
    },
}

/// Unary operations that survive into HIR (pure value ops).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not (bool → bool).
    Not,
    /// Bitwise complement (integers).
    BitNot,
}

/// Binary value operations (no short-circuit, no comparisons).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Remainder (integers).
    Rem,
    /// Bitwise and.
    BitAnd,
    /// Bitwise or.
    BitOr,
    /// Bitwise xor.
    BitXor,
    /// Left shift.
    Shl,
    /// Right shift (arithmetic for signed, logical for unsigned).
    Shr,
}

/// Comparison operators (result type `bool`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

/// A typed expression.
#[derive(Debug, Clone)]
pub enum Expr {
    /// A compile-time constant.
    Const {
        /// The value.
        value: ConstValue,
        /// Source span.
        span: Span,
    },
    /// Read of a local variable.
    Local {
        /// The slot.
        id: LocalId,
        /// The variable's type.
        ty: Type,
        /// Source span.
        span: Span,
    },
    /// A unary value operation on a scalar.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand (already converted to `ty`).
        expr: Box<Expr>,
        /// Operand and result scalar type.
        ty: ScalarType,
        /// Source span.
        span: Span,
    },
    /// A binary value operation; both operands have type `ty`.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
        /// Operand and result scalar type.
        ty: ScalarType,
        /// Source span.
        span: Span,
    },
    /// A comparison; both operands have scalar type `operand_ty` (or both are
    /// pointers, compared by address). Result is `bool`.
    Compare {
        /// Operator.
        op: CmpOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
        /// Common operand scalar type (`None` when comparing pointers).
        operand_ty: Option<ScalarType>,
        /// Source span.
        span: Span,
    },
    /// Short-circuit `&&` / `||`; operands and result are `bool`.
    Logical {
        /// `true` for `&&`, `false` for `||`.
        is_and: bool,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
        /// Source span.
        span: Span,
    },
    /// A scalar conversion.
    Convert {
        /// Target type.
        to: ScalarType,
        /// Operand.
        expr: Box<Expr>,
        /// Source span.
        span: Span,
    },
    /// Assignment; evaluates to the stored value. The stored value has the
    /// place's element type.
    Assign {
        /// Target location.
        place: Place,
        /// Value to store (already converted).
        value: Box<Expr>,
        /// Type of the stored value (= type of the whole expression).
        ty: Type,
        /// Source span.
        span: Span,
    },
    /// Pre/post increment or decrement of a scalar or pointer place.
    IncDec {
        /// Target location.
        place: Place,
        /// The place's type.
        ty: Type,
        /// `true` for `++`.
        is_inc: bool,
        /// `true` when the expression yields the *old* value.
        is_post: bool,
        /// Source span.
        span: Span,
    },
    /// `cond ? a : b`; both arms have type `ty`.
    Ternary {
        /// Boolean condition.
        cond: Box<Expr>,
        /// Value when true.
        then_expr: Box<Expr>,
        /// Value when false.
        else_expr: Box<Expr>,
        /// Result type.
        ty: Type,
        /// Source span.
        span: Span,
    },
    /// Call of a user-defined function.
    Call {
        /// Callee.
        func: FuncId,
        /// Arguments, converted to parameter types.
        args: Vec<Expr>,
        /// The callee's return type.
        ty: Type,
        /// Source span.
        span: Span,
    },
    /// Call of a builtin function.
    BuiltinCall {
        /// Which builtin.
        builtin: Builtin,
        /// Arguments, converted per the builtin's signature.
        args: Vec<Expr>,
        /// Result type.
        ty: Type,
        /// Source span.
        span: Span,
    },
    /// Pointer arithmetic: `ptr + offset` in elements. `ty` is the pointer
    /// type of the result.
    PtrOffset {
        /// Pointer operand.
        ptr: Box<Expr>,
        /// Signed element offset (type `long`).
        offset: Box<Expr>,
        /// Resulting pointer type.
        ty: Type,
        /// Source span.
        span: Span,
    },
    /// Difference of two pointers to the same element type, in elements
    /// (type `long`).
    PtrDiff {
        /// Left pointer.
        lhs: Box<Expr>,
        /// Right pointer.
        rhs: Box<Expr>,
        /// Source span.
        span: Span,
    },
    /// Load through a pointer (`*p`, `p[i]` after lowering).
    Load {
        /// Pointer expression.
        ptr: Box<Expr>,
        /// Loaded element type.
        elem: ScalarType,
        /// Source span.
        span: Span,
    },
}

impl Expr {
    /// The type of the expression.
    pub fn ty(&self) -> Type {
        match self {
            Expr::Const { value, .. } => Type::Scalar(value.scalar_type()),
            Expr::Local { ty, .. } => *ty,
            Expr::Unary { ty, .. } | Expr::Binary { ty, .. } => Type::Scalar(*ty),
            Expr::Compare { .. } | Expr::Logical { .. } => Type::Scalar(ScalarType::Bool),
            Expr::Convert { to, .. } => Type::Scalar(*to),
            Expr::Assign { ty, .. } => *ty,
            Expr::IncDec { ty, .. } => *ty,
            Expr::Ternary { ty, .. } => *ty,
            Expr::Call { ty, .. } => *ty,
            Expr::BuiltinCall { ty, .. } => *ty,
            Expr::PtrOffset { ty, .. } => *ty,
            Expr::PtrDiff { .. } => Type::Scalar(ScalarType::Long),
            Expr::Load { elem, .. } => Type::Scalar(*elem),
        }
    }

    /// The source span of the expression.
    pub fn span(&self) -> Span {
        match self {
            Expr::Const { span, .. }
            | Expr::Local { span, .. }
            | Expr::Unary { span, .. }
            | Expr::Binary { span, .. }
            | Expr::Compare { span, .. }
            | Expr::Logical { span, .. }
            | Expr::Convert { span, .. }
            | Expr::Assign { span, .. }
            | Expr::IncDec { span, .. }
            | Expr::Ternary { span, .. }
            | Expr::Call { span, .. }
            | Expr::BuiltinCall { span, .. }
            | Expr::PtrOffset { span, .. }
            | Expr::PtrDiff { span, .. }
            | Expr::Load { span, .. } => *span,
        }
    }
}

/// Converts a HIR constant to a runtime value.
pub fn const_to_value(c: ConstValue) -> Value {
    match c {
        ConstValue::Bool(b) => Value::Bool(b),
        ConstValue::F32(f) => Value::F32(f),
        ConstValue::F64(f) => Value::F64(f),
        ConstValue::Int(v, ty) => value::convert(Value::I64(v), ty),
    }
}

/// Attempts to evaluate `e` as a compile-time constant (sema needs
/// `__local` array sizes before any code exists). Returns `None` for
/// anything effectful or dependent on runtime state (locals, loads, calls,
/// work-item queries) and for operations that would trap.
pub fn try_eval(e: &Expr) -> Option<ConstValue> {
    Some(match eval_value(e)? {
        Value::Bool(b) => ConstValue::Bool(b),
        Value::F32(f) => ConstValue::F32(f),
        Value::F64(f) => ConstValue::F64(f),
        Value::Ptr(_) => return None,
        int => ConstValue::Int(int.as_i64(), int.scalar_type()?),
    })
}

fn eval_value(e: &Expr) -> Option<Value> {
    match e {
        Expr::Const { value, .. } => Some(const_to_value(*value)),
        Expr::Unary { op, expr, .. } => {
            let v = eval_value(expr)?;
            value::unary(*op, v).ok()
        }
        Expr::Binary { op, lhs, rhs, .. } => {
            let l = eval_value(lhs)?;
            let r = eval_value(rhs)?;
            value::binary(*op, l, r).ok()
        }
        Expr::Compare { op, lhs, rhs, .. } => {
            let l = eval_value(lhs)?;
            let r = eval_value(rhs)?;
            value::compare(*op, l, r).ok().map(Value::Bool)
        }
        Expr::Logical {
            is_and, lhs, rhs, ..
        } => {
            let l = eval_value(lhs)?.is_truthy();
            // Short-circuit even at compile time so the other operand need
            // not be constant.
            if *is_and && !l {
                return Some(Value::Bool(false));
            }
            if !*is_and && l {
                return Some(Value::Bool(true));
            }
            let r = eval_value(rhs)?.is_truthy();
            Some(Value::Bool(r))
        }
        Expr::Convert { to, expr, .. } => {
            let v = eval_value(expr)?;
            Some(value::convert(v, *to))
        }
        Expr::Ternary {
            cond,
            then_expr,
            else_expr,
            ..
        } => {
            let c = eval_value(cond)?.is_truthy();
            if c {
                eval_value(then_expr)
            } else {
                eval_value(else_expr)
            }
        }
        Expr::BuiltinCall { builtin, args, .. } if !builtin.is_special() => {
            let vals: Option<Vec<Value>> = args.iter().map(eval_value).collect();
            Some(builtins::eval_pure(*builtin, &vals?))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn const_value_types() {
        assert_eq!(ConstValue::Bool(true).scalar_type(), ScalarType::Bool);
        assert_eq!(
            ConstValue::Int(-1, ScalarType::Int).scalar_type(),
            ScalarType::Int
        );
        assert_eq!(ConstValue::F32(1.0).scalar_type(), ScalarType::Float);
        assert_eq!(ConstValue::F64(1.0).scalar_type(), ScalarType::Double);
    }

    #[test]
    fn expr_type_of_compare_is_bool() {
        let span = Span::point(0);
        let one = Expr::Const {
            value: ConstValue::Int(1, ScalarType::Int),
            span,
        };
        let two = Expr::Const {
            value: ConstValue::Int(2, ScalarType::Int),
            span,
        };
        let cmp = Expr::Compare {
            op: CmpOp::Lt,
            lhs: Box::new(one),
            rhs: Box::new(two),
            operand_ty: Some(ScalarType::Int),
            span,
        };
        assert_eq!(cmp.ty(), Type::Scalar(ScalarType::Bool));
    }

    fn analyzed(src: &str) -> Unit {
        let f = crate::SourceFile::new("t.cl", src);
        let mut d = crate::diag::Diagnostics::new();
        let tu = crate::parser::parse(&f, &mut d);
        crate::sema::analyze(&tu, &mut d).unwrap_or_else(|| panic!("errors: {}", d.render(&f)))
    }

    fn eval_return(src: &str) -> Option<ConstValue> {
        let u = analyzed(src);
        let (_, f) = u.function("f").expect("test functions are named `f`");
        let Stmt::Return(Some(e)) = &f.body[f.body.len() - 1] else {
            panic!()
        };
        try_eval(e)
    }

    #[test]
    fn folds_integer_arithmetic() {
        assert_eq!(
            eval_return("int f(){ return 16 * 16 + 1; }"),
            Some(ConstValue::Int(257, ScalarType::Int))
        );
        assert_eq!(
            eval_return("int f(){ return (1 << 10) - 1; }"),
            Some(ConstValue::Int(1023, ScalarType::Int))
        );
    }

    #[test]
    fn folds_float_math_and_casts() {
        assert_eq!(
            eval_return("float f(){ return (float)(3 * 2); }"),
            Some(ConstValue::F32(6.0))
        );
        assert_eq!(
            eval_return("float f(){ return sqrt(16.0f); }"),
            Some(ConstValue::F32(4.0))
        );
    }

    #[test]
    fn folds_comparisons_and_ternary() {
        assert_eq!(
            eval_return("int f(){ return 3 < 4 ? 10 : 20; }"),
            Some(ConstValue::Int(10, ScalarType::Int))
        );
        assert_eq!(
            eval_return("bool f(){ return 1 == 2; }"),
            Some(ConstValue::Bool(false))
        );
    }

    #[test]
    fn short_circuit_ignores_non_constant_side() {
        // `x != 0` is not constant but `false && ...` folds anyway.
        assert_eq!(
            eval_return("bool f(int x){ return false && x != 0; }"),
            Some(ConstValue::Bool(false))
        );
        assert_eq!(
            eval_return("bool f(int x){ return true || x != 0; }"),
            Some(ConstValue::Bool(true))
        );
    }

    #[test]
    fn runtime_values_do_not_fold() {
        assert_eq!(eval_return("int f(int x){ return x + 1; }"), None);
        assert_eq!(
            eval_return("float f(__global float* p){ return p[0]; }"),
            None
        );
        assert_eq!(
            eval_return("__kernel void unused(__global int* o){ o[0]=0; } int f(){ return (int)get_global_id(0); }"),
            None
        );
    }

    #[test]
    fn division_by_zero_does_not_fold() {
        // Folding must not hide the runtime trap.
        assert_eq!(eval_return("int f(){ return 1 / 0; }"), None);
    }

    #[test]
    fn constants_evaluate_to_themselves() {
        for c in [
            ConstValue::Bool(true),
            ConstValue::Int(-7, ScalarType::Char),
            ConstValue::Int(70000, ScalarType::Int),
            ConstValue::F32(1.5),
            ConstValue::F64(-2.25),
        ] {
            let e = Expr::Const {
                value: c,
                span: Span::point(0),
            };
            assert_eq!(try_eval(&e), Some(c));
        }
    }
}
