//! Stack bytecode for the SkelCL C virtual machine.
//!
//! Design notes:
//!
//! * one operand stack per call frame; `Call` moves arguments from the
//!   caller's stack into the callee's parameter slots;
//! * `StoreMem` pops the **pointer** first, then the value (codegen emits
//!   `value, ptr, StoreMem`), which avoids any stack-shuffling opcodes;
//! * `Barrier` carries a unique site id so the executor can detect divergent
//!   barriers (work-items of one group suspended at different barriers);
//! * pointer arithmetic is element-scaled: `PtrOffset(size)` pops a signed
//!   element count and advances the pointer by `count * size` bytes.

use std::fmt;

use crate::builtins::Builtin;
use crate::hir::{BinOp, CmpOp, UnOp};
use crate::types::ScalarType;
use crate::value::Value;

/// A bytecode instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Push a constant.
    Const(Value),
    /// Push the value of a local slot.
    LoadLocal(u16),
    /// Pop into a local slot.
    StoreLocal(u16),
    /// Discard the top of stack.
    Pop,
    /// Apply a unary value operation to the top of stack.
    Un(UnOp),
    /// Pop two operands (rhs on top) and push the result.
    Bin(BinOp),
    /// Pop two operands (rhs on top) and push the boolean result.
    Cmp(CmpOp),
    /// Convert the top of stack to a scalar type.
    Convert(ScalarType),
    /// Convert the top of stack to its truthiness.
    ToBool,
    /// Unconditional jump to an instruction index.
    Jump(u32),
    /// Pop a bool; jump when false.
    JumpIfFalse(u32),
    /// Pop a bool; jump when true.
    JumpIfTrue(u32),
    /// Call a user function: pops `argc` arguments (last on top).
    Call {
        /// Index of the callee in the program's function table.
        func: u16,
        /// Number of arguments.
        argc: u8,
    },
    /// Call a pure math builtin with `argc` arguments.
    CallPure(Builtin, u8),
    /// Work-item geometry query; pops the dimension operand except for
    /// `get_work_dim`.
    WorkItem(Builtin),
    /// Work-group barrier with a unique site id; the flags operand has
    /// already been popped. Execution suspends here.
    Barrier {
        /// Unique id of this barrier site within the program.
        id: u32,
    },
    /// Pop an `int` error code and abort the launch.
    Trap,
    /// Pop a pointer and push the loaded element.
    LoadMem(ScalarType),
    /// Pop a pointer, then a value, and store the value through the pointer.
    StoreMem(ScalarType),
    /// Pop a signed element count (`long`), then a pointer; push the pointer
    /// advanced by `count` elements of the given byte size.
    PtrOffset(u32),
    /// Pop two pointers (rhs on top) and push their element distance
    /// (`long`), dividing by the given element byte size.
    PtrDiff(u32),
    /// Pop the return value and return to the caller.
    Return,
    /// Return without a value.
    ReturnVoid,
    /// Executed when control falls off the end of a non-void function.
    MissingReturn,
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Const(v) => write!(f, "const {v}"),
            Op::LoadLocal(s) => write!(f, "load_local {s}"),
            Op::StoreLocal(s) => write!(f, "store_local {s}"),
            Op::Pop => f.write_str("pop"),
            Op::Un(op) => write!(f, "un {op:?}"),
            Op::Bin(op) => write!(f, "bin {op:?}"),
            Op::Cmp(op) => write!(f, "cmp {op:?}"),
            Op::Convert(t) => write!(f, "convert {t}"),
            Op::ToBool => f.write_str("to_bool"),
            Op::Jump(t) => write!(f, "jump {t}"),
            Op::JumpIfFalse(t) => write!(f, "jump_if_false {t}"),
            Op::JumpIfTrue(t) => write!(f, "jump_if_true {t}"),
            Op::Call { func, argc } => write!(f, "call f{func} argc={argc}"),
            Op::CallPure(b, argc) => write!(f, "call_pure {} argc={argc}", b.name()),
            Op::WorkItem(b) => write!(f, "work_item {}", b.name()),
            Op::Barrier { id } => write!(f, "barrier #{id}"),
            Op::Trap => f.write_str("trap"),
            Op::LoadMem(t) => write!(f, "load_mem {t}"),
            Op::StoreMem(t) => write!(f, "store_mem {t}"),
            Op::PtrOffset(sz) => write!(f, "ptr_offset x{sz}"),
            Op::PtrDiff(sz) => write!(f, "ptr_diff x{sz}"),
            Op::Return => f.write_str("return"),
            Op::ReturnVoid => f.write_str("return_void"),
            Op::MissingReturn => f.write_str("missing_return"),
        }
    }
}

/// Compiled bytecode of one function.
#[derive(Debug, Clone)]
pub struct FuncCode {
    /// Function name (for diagnostics and disassembly).
    pub name: String,
    /// Number of parameter slots (the first locals).
    pub param_count: u16,
    /// Initial values for every local slot (parameters are overwritten by
    /// the call; the rest zero-initialise their declared type).
    pub local_init: Vec<Value>,
    /// The instruction sequence.
    pub code: Vec<Op>,
    /// Whether the function returns `void`.
    pub returns_void: bool,
}

impl FuncCode {
    /// Renders a human-readable disassembly (used in tests and debugging).
    pub fn disassemble(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        writeln!(
            out,
            "fn {} (params: {}, locals: {})",
            self.name,
            self.param_count,
            self.local_init.len()
        )
        .unwrap();
        for (i, op) in self.code.iter().enumerate() {
            writeln!(out, "  {i:4}: {op}").unwrap();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms_are_stable() {
        assert_eq!(Op::Const(Value::I32(7)).to_string(), "const 7");
        assert_eq!(Op::Jump(3).to_string(), "jump 3");
        assert_eq!(Op::LoadMem(ScalarType::Float).to_string(), "load_mem float");
        assert_eq!(Op::Barrier { id: 2 }.to_string(), "barrier #2");
        assert_eq!(
            Op::CallPure(Builtin::Sqrt, 1).to_string(),
            "call_pure sqrt argc=1"
        );
    }

    #[test]
    fn disassembly_contains_header_and_ops() {
        let f = FuncCode {
            name: "f".into(),
            param_count: 1,
            local_init: vec![Value::I32(0)],
            code: vec![Op::LoadLocal(0), Op::Return],
            returns_void: false,
        };
        let d = f.disassemble();
        assert!(d.contains("fn f (params: 1, locals: 1)"));
        assert!(d.contains("0: load_local 0"));
        assert!(d.contains("1: return"));
    }
}
