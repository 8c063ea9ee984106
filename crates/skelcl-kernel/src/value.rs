//! Runtime scalar and pointer values, plus the arithmetic shared between the
//! constant folder and the work-item VM.
//!
//! Semantics notes (deterministic replacements for C undefined behaviour,
//! matching common GPU hardware):
//!
//! * integer overflow wraps;
//! * shift amounts are masked to the operand width;
//! * float→integer casts saturate (Rust `as` semantics);
//! * integer division by zero is a reported evaluation error, not UB.

use std::fmt;

use crate::hir::{BinOp, CmpOp, UnOp};
use crate::types::{AddressSpace, ScalarType};

/// A typed pointer value.
///
/// Pointers address one of the buffers bound to the running kernel (global
/// address space) or the work-group's local-memory arena. The `byte_offset`
/// may go transiently negative or past the end during pointer arithmetic;
/// bounds are enforced on dereference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ptr {
    /// The address space the pointer actually refers to (dynamic — an
    /// unqualified pointer parameter can receive either space).
    pub space: AddressSpace,
    /// For `Global`: the index of the kernel buffer argument. For `Local`:
    /// always 0 (the work-group arena).
    pub buffer: u32,
    /// Byte offset from the start of the buffer.
    pub byte_offset: i64,
}

/// [`Ptr::buffer`] of an uninitialised pointer local (address space
/// `Private`); dereferencing one traps in the VM.
pub const UNINIT_BUFFER: u32 = u32::MAX;

/// A runtime value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// `bool`
    Bool(bool),
    /// `char`
    I8(i8),
    /// `uchar`
    U8(u8),
    /// `short`
    I16(i16),
    /// `ushort`
    U16(u16),
    /// `int`
    I32(i32),
    /// `uint`
    U32(u32),
    /// `long`
    I64(i64),
    /// `ulong`
    U64(u64),
    /// `float`
    F32(f32),
    /// `double`
    F64(f64),
    /// Any pointer.
    Ptr(Ptr),
}

/// An error produced while evaluating an operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// Integer division or remainder by zero.
    DivisionByZero,
    /// Internal invariant violation (mismatched operand types reaching the
    /// evaluator); indicates a compiler bug rather than a user error.
    TypeMismatch {
        /// What was being evaluated.
        context: &'static str,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::DivisionByZero => f.write_str("integer division by zero"),
            EvalError::TypeMismatch { context } => {
                write!(f, "internal type mismatch during {context}")
            }
        }
    }
}

impl std::error::Error for EvalError {}

impl Value {
    /// The scalar type of the value (`None` for pointers).
    pub fn scalar_type(&self) -> Option<ScalarType> {
        use ScalarType::*;
        Some(match self {
            Value::Bool(_) => Bool,
            Value::I8(_) => Char,
            Value::U8(_) => UChar,
            Value::I16(_) => Short,
            Value::U16(_) => UShort,
            Value::I32(_) => Int,
            Value::U32(_) => UInt,
            Value::I64(_) => Long,
            Value::U64(_) => ULong,
            Value::F32(_) => Float,
            Value::F64(_) => Double,
            Value::Ptr(_) => return None,
        })
    }

    /// The zero/default value of a scalar type.
    pub fn zero(ty: ScalarType) -> Value {
        use ScalarType::*;
        match ty {
            Bool => Value::Bool(false),
            Char => Value::I8(0),
            UChar => Value::U8(0),
            Short => Value::I16(0),
            UShort => Value::U16(0),
            Int => Value::I32(0),
            UInt => Value::U32(0),
            Long => Value::I64(0),
            ULong => Value::U64(0),
            Float => Value::F32(0.0),
            Double => Value::F64(0.0),
        }
    }

    /// Interprets the value as an `i64`, sign- or zero-extending integers,
    /// truncating floats toward zero, mapping `bool` to 0/1.
    ///
    /// # Panics
    ///
    /// Panics on pointer values.
    pub fn as_i64(&self) -> i64 {
        match *self {
            Value::Bool(b) => b as i64,
            Value::I8(v) => v as i64,
            Value::U8(v) => v as i64,
            Value::I16(v) => v as i64,
            Value::U16(v) => v as i64,
            Value::I32(v) => v as i64,
            Value::U32(v) => v as i64,
            Value::I64(v) => v,
            Value::U64(v) => v as i64,
            Value::F32(v) => v as i64,
            Value::F64(v) => v as i64,
            Value::Ptr(_) => panic!("pointer value used as integer"),
        }
    }

    /// Interprets the value as an `f64`.
    ///
    /// # Panics
    ///
    /// Panics on pointer values.
    pub fn as_f64(&self) -> f64 {
        match *self {
            Value::Bool(b) => b as u8 as f64,
            Value::I8(v) => v as f64,
            Value::U8(v) => v as f64,
            Value::I16(v) => v as f64,
            Value::U16(v) => v as f64,
            Value::I32(v) => v as f64,
            Value::U32(v) => v as f64,
            Value::I64(v) => v as f64,
            Value::U64(v) => v as f64,
            Value::F32(v) => v as f64,
            Value::F64(v) => v,
            Value::Ptr(_) => panic!("pointer value used as float"),
        }
    }

    /// Whether the value is "truthy" (non-zero / non-null), as in C
    /// conditions.
    pub fn is_truthy(&self) -> bool {
        match *self {
            Value::Bool(b) => b,
            Value::I8(v) => v != 0,
            Value::U8(v) => v != 0,
            Value::I16(v) => v != 0,
            Value::U16(v) => v != 0,
            Value::I32(v) => v != 0,
            Value::U32(v) => v != 0,
            Value::I64(v) => v != 0,
            Value::U64(v) => v != 0,
            Value::F32(v) => v != 0.0,
            Value::F64(v) => v != 0.0,
            Value::Ptr(_) => true,
        }
    }

    /// The pointer payload, if this is a pointer.
    pub fn as_ptr(&self) -> Option<Ptr> {
        match self {
            Value::Ptr(p) => Some(*p),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(v) => write!(f, "{v}"),
            Value::I8(v) => write!(f, "{v}"),
            Value::U8(v) => write!(f, "{v}"),
            Value::I16(v) => write!(f, "{v}"),
            Value::U16(v) => write!(f, "{v}"),
            Value::I32(v) => write!(f, "{v}"),
            Value::U32(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::U64(v) => write!(f, "{v}"),
            Value::F32(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Ptr(p) => write!(f, "{:?}+{}", p.space, p.byte_offset),
        }
    }
}

/// Converts `v` to scalar type `to` with C cast semantics.
///
/// # Panics
///
/// Panics if `v` is a pointer (pointer/scalar conversions are rejected by
/// sema).
pub fn convert(v: Value, to: ScalarType) -> Value {
    use ScalarType::*;
    if to == Bool {
        return Value::Bool(v.is_truthy());
    }
    match v {
        Value::F32(x) => float_to(x as f64, to, || x as f64),
        Value::F64(x) => float_to(x, to, || x),
        Value::Ptr(_) => panic!("pointer value in scalar conversion"),
        other => {
            let bits = other.as_i64();
            match to {
                Bool => unreachable!(),
                Char => Value::I8(bits as i8),
                UChar => Value::U8(bits as u8),
                Short => Value::I16(bits as i16),
                UShort => Value::U16(bits as u16),
                Int => Value::I32(bits as i32),
                UInt => Value::U32(bits as u32),
                Long => Value::I64(bits),
                ULong => Value::U64(bits as u64),
                Float => match other {
                    // Preserve full unsigned range.
                    Value::U64(u) => Value::F32(u as f32),
                    _ => Value::F32(bits as f32),
                },
                Double => match other {
                    Value::U64(u) => Value::F64(u as f64),
                    _ => Value::F64(bits as f64),
                },
            }
        }
    }
}

fn float_to(x: f64, to: ScalarType, exact: impl Fn() -> f64) -> Value {
    use ScalarType::*;
    match to {
        Bool => Value::Bool(x != 0.0),
        Char => Value::I8(x as i8),
        UChar => Value::U8(x as u8),
        Short => Value::I16(x as i16),
        UShort => Value::U16(x as u16),
        Int => Value::I32(x as i32),
        UInt => Value::U32(x as u32),
        Long => Value::I64(x as i64),
        ULong => Value::U64(x as u64),
        Float => Value::F32(exact() as f32),
        Double => Value::F64(exact()),
    }
}

macro_rules! int_binop {
    ($op:expr, $a:expr, $b:expr, $t:ident, $unsigned:expr) => {{
        let a = $a;
        let b = $b;
        let width_mask = (std::mem::size_of_val(&a) * 8 - 1) as u32;
        Ok(Value::$t(match $op {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Div => {
                if b == 0 {
                    return Err(EvalError::DivisionByZero);
                }
                a.wrapping_div(b)
            }
            BinOp::Rem => {
                if b == 0 {
                    return Err(EvalError::DivisionByZero);
                }
                a.wrapping_rem(b)
            }
            BinOp::BitAnd => a & b,
            BinOp::BitOr => a | b,
            BinOp::BitXor => a ^ b,
            BinOp::Shl => a.wrapping_shl(b as u32 & width_mask),
            BinOp::Shr => a.wrapping_shr(b as u32 & width_mask),
        }))
    }};
}

macro_rules! float_binop {
    ($op:expr, $a:expr, $b:expr, $t:ident) => {{
        let a = $a;
        let b = $b;
        Ok(Value::$t(match $op {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            BinOp::Div => a / b,
            BinOp::Rem => a % b,
            _ => {
                return Err(EvalError::TypeMismatch {
                    context: "float bit operation",
                })
            }
        }))
    }};
}

/// Evaluates a binary value operation. Operands must have identical scalar
/// types (guaranteed by sema/codegen).
///
/// # Errors
///
/// Returns [`EvalError::DivisionByZero`] for integer `/ 0` or `% 0`, and
/// [`EvalError::TypeMismatch`] if operand variants disagree (compiler bug).
pub fn binary(op: BinOp, a: Value, b: Value) -> Result<Value, EvalError> {
    match (a, b) {
        (Value::I8(x), Value::I8(y)) => int_binop!(op, x, y, I8, false),
        (Value::U8(x), Value::U8(y)) => int_binop!(op, x, y, U8, true),
        (Value::I16(x), Value::I16(y)) => int_binop!(op, x, y, I16, false),
        (Value::U16(x), Value::U16(y)) => int_binop!(op, x, y, U16, true),
        (Value::I32(x), Value::I32(y)) => int_binop!(op, x, y, I32, false),
        (Value::U32(x), Value::U32(y)) => int_binop!(op, x, y, U32, true),
        (Value::I64(x), Value::I64(y)) => int_binop!(op, x, y, I64, false),
        (Value::U64(x), Value::U64(y)) => int_binop!(op, x, y, U64, true),
        (Value::F32(x), Value::F32(y)) => float_binop!(op, x, y, F32),
        (Value::F64(x), Value::F64(y)) => float_binop!(op, x, y, F64),
        _ => Err(EvalError::TypeMismatch {
            context: "binary operation",
        }),
    }
}

/// Evaluates a comparison. Operands must have identical scalar types, or
/// both be pointers.
///
/// # Errors
///
/// Returns [`EvalError::TypeMismatch`] if operand variants disagree.
pub fn compare(op: CmpOp, a: Value, b: Value) -> Result<bool, EvalError> {
    use std::cmp::Ordering;
    let ord = match (a, b) {
        (Value::Bool(x), Value::Bool(y)) => x.cmp(&y),
        (Value::I8(x), Value::I8(y)) => x.cmp(&y),
        (Value::U8(x), Value::U8(y)) => x.cmp(&y),
        (Value::I16(x), Value::I16(y)) => x.cmp(&y),
        (Value::U16(x), Value::U16(y)) => x.cmp(&y),
        (Value::I32(x), Value::I32(y)) => x.cmp(&y),
        (Value::U32(x), Value::U32(y)) => x.cmp(&y),
        (Value::I64(x), Value::I64(y)) => x.cmp(&y),
        (Value::U64(x), Value::U64(y)) => x.cmp(&y),
        (Value::F32(x), Value::F32(y)) => {
            return Ok(float_cmp(op, x.partial_cmp(&y)));
        }
        (Value::F64(x), Value::F64(y)) => {
            return Ok(float_cmp(op, x.partial_cmp(&y)));
        }
        (Value::Ptr(x), Value::Ptr(y)) => (x.buffer, x.byte_offset).cmp(&(y.buffer, y.byte_offset)),
        _ => {
            return Err(EvalError::TypeMismatch {
                context: "comparison",
            })
        }
    };
    Ok(match op {
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::Le => ord != Ordering::Greater,
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::Ge => ord != Ordering::Less,
        CmpOp::Eq => ord == Ordering::Equal,
        CmpOp::Ne => ord != Ordering::Equal,
    })
}

fn float_cmp(op: CmpOp, ord: Option<std::cmp::Ordering>) -> bool {
    use std::cmp::Ordering::*;
    // IEEE semantics: all ordered comparisons with NaN are false; != is true.
    match (op, ord) {
        (CmpOp::Ne, None) => true,
        (_, None) => false,
        (CmpOp::Lt, Some(o)) => o == Less,
        (CmpOp::Le, Some(o)) => o != Greater,
        (CmpOp::Gt, Some(o)) => o == Greater,
        (CmpOp::Ge, Some(o)) => o != Less,
        (CmpOp::Eq, Some(o)) => o == Equal,
        (CmpOp::Ne, Some(o)) => o != Equal,
    }
}

/// Evaluates a unary value operation.
///
/// # Errors
///
/// Returns [`EvalError::TypeMismatch`] for an operator/operand mismatch
/// (compiler bug; sema rejects these statically).
pub fn unary(op: UnOp, v: Value) -> Result<Value, EvalError> {
    match op {
        UnOp::Not => Ok(Value::Bool(!v.is_truthy())),
        UnOp::Neg => Ok(match v {
            Value::I8(x) => Value::I8(x.wrapping_neg()),
            Value::U8(x) => Value::U8(x.wrapping_neg()),
            Value::I16(x) => Value::I16(x.wrapping_neg()),
            Value::U16(x) => Value::U16(x.wrapping_neg()),
            Value::I32(x) => Value::I32(x.wrapping_neg()),
            Value::U32(x) => Value::U32(x.wrapping_neg()),
            Value::I64(x) => Value::I64(x.wrapping_neg()),
            Value::U64(x) => Value::U64(x.wrapping_neg()),
            Value::F32(x) => Value::F32(-x),
            Value::F64(x) => Value::F64(-x),
            _ => {
                return Err(EvalError::TypeMismatch {
                    context: "negation",
                })
            }
        }),
        UnOp::BitNot => Ok(match v {
            Value::I8(x) => Value::I8(!x),
            Value::U8(x) => Value::U8(!x),
            Value::I16(x) => Value::I16(!x),
            Value::U16(x) => Value::U16(!x),
            Value::I32(x) => Value::I32(!x),
            Value::U32(x) => Value::U32(!x),
            Value::I64(x) => Value::I64(!x),
            Value::U64(x) => Value::U64(!x),
            _ => {
                return Err(EvalError::TypeMismatch {
                    context: "bitwise complement",
                })
            }
        }),
    }
}

/// Reads a scalar of type `ty` from the start of `bytes` (little-endian).
///
/// # Panics
///
/// Panics if `bytes` is shorter than the scalar's size.
pub fn read_scalar(bytes: &[u8], ty: ScalarType) -> Value {
    use ScalarType::*;
    match ty {
        Bool => Value::Bool(bytes[0] != 0),
        Char => Value::I8(bytes[0] as i8),
        UChar => Value::U8(bytes[0]),
        Short => Value::I16(i16::from_le_bytes([bytes[0], bytes[1]])),
        UShort => Value::U16(u16::from_le_bytes([bytes[0], bytes[1]])),
        Int => Value::I32(i32::from_le_bytes(bytes[..4].try_into().unwrap())),
        UInt => Value::U32(u32::from_le_bytes(bytes[..4].try_into().unwrap())),
        Long => Value::I64(i64::from_le_bytes(bytes[..8].try_into().unwrap())),
        ULong => Value::U64(u64::from_le_bytes(bytes[..8].try_into().unwrap())),
        Float => Value::F32(f32::from_le_bytes(bytes[..4].try_into().unwrap())),
        Double => Value::F64(f64::from_le_bytes(bytes[..8].try_into().unwrap())),
    }
}

/// Writes `v` (which must match `ty`) into the start of `bytes`
/// (little-endian).
///
/// # Panics
///
/// Panics if `bytes` is shorter than the scalar's size or if `v`'s variant
/// does not match `ty`.
pub fn write_scalar(bytes: &mut [u8], ty: ScalarType, v: Value) {
    use ScalarType::*;
    match (ty, v) {
        (Bool, Value::Bool(x)) => bytes[0] = x as u8,
        (Char, Value::I8(x)) => bytes[0] = x as u8,
        (UChar, Value::U8(x)) => bytes[0] = x,
        (Short, Value::I16(x)) => bytes[..2].copy_from_slice(&x.to_le_bytes()),
        (UShort, Value::U16(x)) => bytes[..2].copy_from_slice(&x.to_le_bytes()),
        (Int, Value::I32(x)) => bytes[..4].copy_from_slice(&x.to_le_bytes()),
        (UInt, Value::U32(x)) => bytes[..4].copy_from_slice(&x.to_le_bytes()),
        (Long, Value::I64(x)) => bytes[..8].copy_from_slice(&x.to_le_bytes()),
        (ULong, Value::U64(x)) => bytes[..8].copy_from_slice(&x.to_le_bytes()),
        (Float, Value::F32(x)) => bytes[..4].copy_from_slice(&x.to_le_bytes()),
        (Double, Value::F64(x)) => bytes[..8].copy_from_slice(&x.to_le_bytes()),
        (ty, v) => panic!("value {v:?} does not match scalar type {ty}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ScalarType::*;

    #[test]
    fn conversion_widen_and_narrow() {
        assert_eq!(convert(Value::I8(-1), Int), Value::I32(-1));
        assert_eq!(convert(Value::I32(257), Char), Value::I8(1));
        assert_eq!(convert(Value::I32(-1), UInt), Value::U32(u32::MAX));
        assert_eq!(convert(Value::F32(2.9), Int), Value::I32(2));
        assert_eq!(convert(Value::F64(-2.9), Int), Value::I32(-2));
        assert_eq!(convert(Value::I32(3), Float), Value::F32(3.0));
        assert_eq!(
            convert(Value::U64(u64::MAX), Double),
            Value::F64(u64::MAX as f64)
        );
        assert_eq!(convert(Value::I32(0), Bool), Value::Bool(false));
        assert_eq!(convert(Value::F32(0.5), Bool), Value::Bool(true));
        assert_eq!(convert(Value::Bool(true), Float), Value::F32(1.0));
    }

    #[test]
    fn float_to_int_saturates() {
        assert_eq!(convert(Value::F32(1e20), Int), Value::I32(i32::MAX));
        assert_eq!(convert(Value::F32(-1e20), Int), Value::I32(i32::MIN));
        assert_eq!(convert(Value::F32(f32::NAN), Int), Value::I32(0));
    }

    #[test]
    fn integer_arithmetic_wraps() {
        assert_eq!(
            binary(BinOp::Add, Value::I32(i32::MAX), Value::I32(1)).unwrap(),
            Value::I32(i32::MIN)
        );
        assert_eq!(
            binary(BinOp::Mul, Value::U8(200), Value::U8(2)).unwrap(),
            Value::U8(144)
        );
    }

    #[test]
    fn division_by_zero_is_error() {
        assert_eq!(
            binary(BinOp::Div, Value::I32(1), Value::I32(0)),
            Err(EvalError::DivisionByZero)
        );
        assert_eq!(
            binary(BinOp::Rem, Value::U64(1), Value::U64(0)),
            Err(EvalError::DivisionByZero)
        );
        // Float division by zero is IEEE infinity, not an error.
        assert_eq!(
            binary(BinOp::Div, Value::F32(1.0), Value::F32(0.0)).unwrap(),
            Value::F32(f32::INFINITY)
        );
    }

    #[test]
    fn shift_amounts_are_masked() {
        assert_eq!(
            binary(BinOp::Shl, Value::I32(1), Value::I32(33)).unwrap(),
            Value::I32(2)
        );
        assert_eq!(
            binary(BinOp::Shr, Value::U8(128), Value::U8(9)).unwrap(),
            Value::U8(64)
        );
    }

    #[test]
    fn signed_vs_unsigned_shift_right() {
        assert_eq!(
            binary(BinOp::Shr, Value::I32(-8), Value::I32(1)).unwrap(),
            Value::I32(-4)
        );
        assert_eq!(
            binary(BinOp::Shr, Value::U32(0x8000_0000), Value::U32(1)).unwrap(),
            Value::U32(0x4000_0000)
        );
    }

    #[test]
    fn comparisons_and_nan() {
        assert!(compare(CmpOp::Lt, Value::I32(-1), Value::I32(2)).unwrap());
        assert!(compare(CmpOp::Gt, Value::U32(3), Value::U32(2)).unwrap());
        assert!(!compare(CmpOp::Lt, Value::F32(f32::NAN), Value::F32(0.0)).unwrap());
        assert!(!compare(CmpOp::Eq, Value::F32(f32::NAN), Value::F32(f32::NAN)).unwrap());
        assert!(compare(CmpOp::Ne, Value::F32(f32::NAN), Value::F32(f32::NAN)).unwrap());
    }

    #[test]
    fn pointer_comparison_by_offset() {
        let p = |off| {
            Value::Ptr(Ptr {
                space: AddressSpace::Global,
                buffer: 0,
                byte_offset: off,
            })
        };
        assert!(compare(CmpOp::Lt, p(0), p(8)).unwrap());
        assert!(compare(CmpOp::Eq, p(4), p(4)).unwrap());
    }

    #[test]
    fn unary_operations() {
        assert_eq!(unary(UnOp::Neg, Value::F32(2.0)).unwrap(), Value::F32(-2.0));
        assert_eq!(
            unary(UnOp::Neg, Value::I32(i32::MIN)).unwrap(),
            Value::I32(i32::MIN)
        );
        assert_eq!(
            unary(UnOp::BitNot, Value::U8(0xF0)).unwrap(),
            Value::U8(0x0F)
        );
        assert_eq!(unary(UnOp::Not, Value::I32(0)).unwrap(), Value::Bool(true));
        assert_eq!(
            unary(UnOp::Not, Value::F64(1.5)).unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn scalar_io_roundtrip_all_types() {
        let samples: Vec<(ScalarType, Value)> = vec![
            (Bool, Value::Bool(true)),
            (Char, Value::I8(-5)),
            (UChar, Value::U8(200)),
            (Short, Value::I16(-1234)),
            (UShort, Value::U16(60000)),
            (Int, Value::I32(-100000)),
            (UInt, Value::U32(4000000000)),
            (Long, Value::I64(-1i64 << 40)),
            (ULong, Value::U64(u64::MAX)),
            (Float, Value::F32(3.25)),
            (Double, Value::F64(-1.5e100)),
        ];
        for (ty, v) in samples {
            let mut buf = [0u8; 8];
            write_scalar(&mut buf, ty, v);
            assert_eq!(read_scalar(&buf, ty), v, "{ty}");
        }
    }

    #[test]
    fn truthiness() {
        assert!(Value::F64(-0.5).is_truthy());
        assert!(!Value::F32(0.0).is_truthy());
        assert!(!Value::U64(0).is_truthy());
        assert!(Value::I8(-1).is_truthy());
    }
}
