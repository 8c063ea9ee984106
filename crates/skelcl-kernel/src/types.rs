//! The SkelCL C type system: scalar types, address spaces and pointers.
//!
//! The subset deliberately mirrors what SkelCL-generated kernels need:
//! scalars, and pointers-to-scalar in the `global`, `local` and `private`
//! address spaces. There are no pointer-to-pointer types, structs or vector
//! types.

use std::fmt;

/// A scalar (non-pointer) kernel type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ScalarType {
    /// `bool` (stored as one byte).
    Bool,
    /// `char`: signed 8-bit.
    Char,
    /// `uchar`: unsigned 8-bit.
    UChar,
    /// `short`: signed 16-bit.
    Short,
    /// `ushort`: unsigned 16-bit.
    UShort,
    /// `int`: signed 32-bit.
    Int,
    /// `uint`: unsigned 32-bit.
    UInt,
    /// `long`: signed 64-bit.
    Long,
    /// `ulong`: unsigned 64-bit.
    ULong,
    /// `float`: IEEE-754 binary32.
    Float,
    /// `double`: IEEE-754 binary64.
    Double,
}

impl ScalarType {
    /// Size of a value of this type in bytes, as stored in buffers.
    pub fn size_bytes(self) -> usize {
        use ScalarType::*;
        match self {
            Bool | Char | UChar => 1,
            Short | UShort => 2,
            Int | UInt | Float => 4,
            Long | ULong | Double => 8,
        }
    }

    /// Whether the type is an integer type (`bool` is not).
    pub fn is_integer(self) -> bool {
        use ScalarType::*;
        matches!(
            self,
            Char | UChar | Short | UShort | Int | UInt | Long | ULong
        )
    }

    /// Whether the type is `float` or `double`.
    pub fn is_float(self) -> bool {
        matches!(self, ScalarType::Float | ScalarType::Double)
    }

    /// Whether the type is a signed integer type.
    pub fn is_signed_integer(self) -> bool {
        use ScalarType::*;
        matches!(self, Char | Short | Int | Long)
    }

    /// Whether the type is an unsigned integer type.
    pub fn is_unsigned_integer(self) -> bool {
        use ScalarType::*;
        matches!(self, UChar | UShort | UInt | ULong)
    }

    /// Conversion rank used for usual arithmetic conversions. Higher rank
    /// wins; unsigned beats signed at equal width (C semantics, simplified).
    pub fn rank(self) -> u8 {
        use ScalarType::*;
        match self {
            Bool => 0,
            Char => 10,
            UChar => 11,
            Short => 20,
            UShort => 21,
            Int => 30,
            UInt => 31,
            Long => 40,
            ULong => 41,
            Float => 50,
            Double => 60,
        }
    }

    /// The OpenCL C spelling of the type.
    pub fn name(self) -> &'static str {
        use ScalarType::*;
        match self {
            Bool => "bool",
            Char => "char",
            UChar => "uchar",
            Short => "short",
            UShort => "ushort",
            Int => "int",
            UInt => "uint",
            Long => "long",
            ULong => "ulong",
            Float => "float",
            Double => "double",
        }
    }

    /// All scalar types, for exhaustive tests.
    pub const ALL: [ScalarType; 11] = [
        ScalarType::Bool,
        ScalarType::Char,
        ScalarType::UChar,
        ScalarType::Short,
        ScalarType::UShort,
        ScalarType::Int,
        ScalarType::UInt,
        ScalarType::Long,
        ScalarType::ULong,
        ScalarType::Float,
        ScalarType::Double,
    ];
}

impl fmt::Display for ScalarType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// OpenCL address space of a pointer or variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AddressSpace {
    /// Per-work-item memory (default for locals and scalars).
    #[default]
    Private,
    /// Device global memory, shared by all work-items.
    Global,
    /// Work-group local memory, shared within one work-group.
    Local,
}

impl AddressSpace {
    /// The OpenCL C qualifier spelling.
    pub fn name(self) -> &'static str {
        match self {
            AddressSpace::Private => "__private",
            AddressSpace::Global => "__global",
            AddressSpace::Local => "__local",
        }
    }
}

impl fmt::Display for AddressSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A complete SkelCL C type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Type {
    /// The `void` type (function returns only).
    Void,
    /// A scalar value.
    Scalar(ScalarType),
    /// A pointer to a scalar in some address space.
    Pointer {
        /// The pointed-to element type.
        pointee: ScalarType,
        /// Which memory the pointer refers to.
        space: AddressSpace,
        /// Whether stores through the pointer are rejected.
        is_const: bool,
    },
}

impl Type {
    /// Shorthand for a scalar type.
    pub fn scalar(s: ScalarType) -> Type {
        Type::Scalar(s)
    }

    /// Shorthand for a mutable global pointer.
    pub fn global_ptr(pointee: ScalarType) -> Type {
        Type::Pointer {
            pointee,
            space: AddressSpace::Global,
            is_const: false,
        }
    }

    /// Shorthand for a const global pointer.
    pub fn const_global_ptr(pointee: ScalarType) -> Type {
        Type::Pointer {
            pointee,
            space: AddressSpace::Global,
            is_const: true,
        }
    }

    /// Shorthand for a local-memory pointer.
    pub fn local_ptr(pointee: ScalarType) -> Type {
        Type::Pointer {
            pointee,
            space: AddressSpace::Local,
            is_const: false,
        }
    }

    /// The scalar type if this is a scalar.
    pub fn as_scalar(self) -> Option<ScalarType> {
        match self {
            Type::Scalar(s) => Some(s),
            _ => None,
        }
    }

    /// Whether the type is a pointer.
    pub fn is_pointer(self) -> bool {
        matches!(self, Type::Pointer { .. })
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Void => f.write_str("void"),
            Type::Scalar(s) => write!(f, "{s}"),
            Type::Pointer {
                pointee,
                space,
                is_const,
            } => {
                if *is_const {
                    write!(f, "const ")?;
                }
                match space {
                    AddressSpace::Private => write!(f, "{pointee}*"),
                    _ => write!(f, "{space} {pointee}*"),
                }
            }
        }
    }
}

/// Computes the common type of the usual arithmetic conversions for two
/// scalar operands, following simplified C rules:
///
/// * if either is `double`, the result is `double`;
/// * else if either is `float`, the result is `float`;
/// * else both are promoted to at least `int`, and the higher-ranked
///   (width, then unsignedness) type wins.
pub fn usual_arithmetic_conversion(a: ScalarType, b: ScalarType) -> ScalarType {
    use ScalarType::*;
    if a == Double || b == Double {
        return Double;
    }
    if a == Float || b == Float {
        return Float;
    }
    let pa = integer_promote(a);
    let pb = integer_promote(b);
    if pa == pb {
        return pa;
    }
    let (lo, hi) = if pa.rank() < pb.rank() {
        (pa, pb)
    } else {
        (pb, pa)
    };
    // Same width, differing signedness: the unsigned type wins (e.g.
    // int + uint -> uint). Otherwise the wider type wins.
    if lo.size_bytes() == hi.size_bytes() {
        if hi.is_unsigned_integer() {
            hi
        } else {
            lo
        }
    } else {
        hi
    }
}

/// Integer promotion: `bool`, `char`, `uchar`, `short` and `ushort` promote
/// to `int` (all their values fit).
pub fn integer_promote(s: ScalarType) -> ScalarType {
    use ScalarType::*;
    match s {
        Bool | Char | UChar | Short | UShort => Int,
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ScalarType::*;

    #[test]
    fn sizes() {
        assert_eq!(Char.size_bytes(), 1);
        assert_eq!(UShort.size_bytes(), 2);
        assert_eq!(Float.size_bytes(), 4);
        assert_eq!(Double.size_bytes(), 8);
        assert_eq!(ULong.size_bytes(), 8);
    }

    #[test]
    fn classification_is_partitioned() {
        for s in ScalarType::ALL {
            let classes = [s.is_integer(), s.is_float(), s == Bool]
                .iter()
                .filter(|&&b| b)
                .count();
            assert_eq!(classes, 1, "{s} must be in exactly one class");
            if s.is_integer() {
                assert_ne!(s.is_signed_integer(), s.is_unsigned_integer());
            }
        }
    }

    #[test]
    fn arithmetic_conversions_match_c() {
        assert_eq!(usual_arithmetic_conversion(Char, Char), Int);
        assert_eq!(usual_arithmetic_conversion(Short, UShort), Int);
        assert_eq!(usual_arithmetic_conversion(Int, UInt), UInt);
        assert_eq!(usual_arithmetic_conversion(Int, Long), Long);
        assert_eq!(usual_arithmetic_conversion(UInt, Long), Long);
        assert_eq!(usual_arithmetic_conversion(Long, ULong), ULong);
        assert_eq!(usual_arithmetic_conversion(Int, Float), Float);
        assert_eq!(usual_arithmetic_conversion(Float, Double), Double);
        assert_eq!(usual_arithmetic_conversion(Bool, Bool), Int);
    }

    #[test]
    fn conversion_is_commutative() {
        for a in ScalarType::ALL {
            for b in ScalarType::ALL {
                assert_eq!(
                    usual_arithmetic_conversion(a, b),
                    usual_arithmetic_conversion(b, a),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(Type::scalar(Float).to_string(), "float");
        assert_eq!(Type::global_ptr(Char).to_string(), "__global char*");
        assert_eq!(
            Type::const_global_ptr(Float).to_string(),
            "const __global float*"
        );
        assert_eq!(Type::local_ptr(Int).to_string(), "__local int*");
        assert_eq!(
            Type::Pointer {
                pointee: Int,
                space: AddressSpace::Private,
                is_const: false
            }
            .to_string(),
            "int*"
        );
        assert_eq!(Type::Void.to_string(), "void");
    }
}
