//! The parser's nesting budget (`parser::MAX_NESTING`): user functions are
//! arbitrary strings, and every stage after the parser recurses once per
//! level of the tree, so nesting past the budget must become one
//! diagnostic — not a stack overflow, which aborts the process — and
//! nesting up to it must compile and run on a small stack.

use skelcl_kernel::parser::MAX_NESTING;
use skelcl_kernel::types::AddressSpace;
use skelcl_kernel::value::{Ptr, Value};
use skelcl_kernel::vm::{EntryFrame, Exit, HostMemory, ItemGeometry, WorkGroup, WorkItem};
use skelcl_kernel::{compile, CompileError, Program};

/// Runs `f` on a thread with a 2 MiB stack, a common default for spawned
/// threads; an overflow would abort the test binary.
fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .expect("thread spawns")
        .join()
        .expect("no panic")
}

/// Kernels whose body nests `n` levels of one construct around a store of
/// `x` (an `int` argument, 3) to `o[lane]`.
fn shapes(n: usize) -> Vec<(&'static str, String)> {
    let kernel = |body: String| {
        format!(
            "__kernel void k(__global int* o, int x) {{\n    int i = (int)get_global_id(0);\n    {body}\n}}"
        )
    };
    vec![
        (
            "parentheses",
            kernel(format!("o[i] = {}x{};", "(".repeat(n), ")".repeat(n))),
        ),
        (
            "blocks",
            kernel(format!("{}o[i] = x;{}", "{".repeat(n), "}".repeat(n))),
        ),
        (
            "if chain",
            kernel(format!("{}o[i] = x;", "if (x > i) ".repeat(n))),
        ),
        ("negations", kernel(format!("o[i] = {}x;", "- ".repeat(n)))),
        (
            "left-associative chain",
            kernel(format!("o[i] = x{};", " + i".repeat(n))),
        ),
        (
            "assignment chain",
            kernel(format!("int a = 0; o[i] = {}x;", "a = ".repeat(n))),
        ),
        (
            "conditional chain",
            kernel(format!("o[i] = {}x;", "i > x ? i : ".repeat(n))),
        ),
    ]
}

/// The nesting diagnostics of a failed compile, or `None` if it compiled.
fn nesting_errors(src: &str) -> Option<Vec<String>> {
    match compile("deep.cl", src) {
        Ok(_) => None,
        Err(CompileError { diagnostics, .. }) => Some(
            diagnostics
                .into_iter()
                .map(|d| format!("{}..{}: {}", d.span.start, d.span.end, d.message))
                .collect(),
        ),
    }
}

#[test]
fn a_million_levels_give_one_diagnostic_not_an_abort() {
    on_small_stack(|| {
        let n = 1_000_000;
        for (shape, src) in shapes(n) {
            if matches!(shape, "parentheses" | "blocks" | "if chain") {
                let errors = nesting_errors(&src).unwrap_or_else(|| panic!("{shape}: compiled"));
                assert_eq!(errors.len(), 1, "{shape}: {errors:?}");
                assert!(errors[0].contains("nest more than"), "{shape}: {errors:?}");
                let start: usize = errors[0].split("..").next().unwrap().parse().unwrap();
                assert!(start < src.len(), "{shape}: the span is in the source");
            }
        }
    });
}

/// Lane `lane`'s item of a 4-item, one-group 1-D launch.
fn geometry(lane: u64) -> ItemGeometry {
    ItemGeometry {
        work_dim: 1,
        global_id: [lane, 0, 0],
        local_id: [lane, 0, 0],
        group_id: [0; 3],
        global_size: [4, 1, 1],
        local_size: [4, 1, 1],
        num_groups: [1, 1, 1],
    }
}

/// `o` after the kernel ran over four items, through the group executor
/// and through the reference interpreter.
fn both_ways(program: &Program) -> (Vec<u8>, Vec<u8>) {
    let info = program.kernel("k").expect("kernel k");
    let run = |group: bool| {
        let mut mem = HostMemory::new();
        let o = mem.add_buffer(vec![0; 16]);
        let args = [
            Value::Ptr(Ptr {
                space: AddressSpace::Global,
                buffer: o,
                byte_offset: 0,
            }),
            Value::I32(3),
        ];
        if group {
            let mut g = WorkGroup::default();
            g.arm(geometry(0), u64::MAX);
            let entry = EntryFrame::new(program, info, &args);
            assert_eq!(g.run(&entry, &mem, &mut []), Ok(Exit::Done));
        } else {
            for lane in 0..4 {
                let mut item = WorkItem::new(program, info.func, &args, geometry(lane));
                assert_eq!(item.run_reference(&mem, &mut []), Ok(Exit::Done));
            }
        }
        mem.bytes(o)
    };
    (run(true), run(false))
}

#[test]
fn nesting_up_to_the_budget_compiles_and_runs_the_same_both_ways() {
    on_small_stack(|| {
        for (k, (shape, _)) in shapes(0).into_iter().enumerate() {
            let src = |n: usize| shapes(n).swap_remove(k).1;
            // The deepest `n` that compiles: the budget less the levels
            // the kernel's own statement and store take.
            let n = (MAX_NESTING - 8..=MAX_NESTING)
                .rev()
                .find(|&n| nesting_errors(&src(n)).is_none())
                .unwrap_or_else(|| panic!("{shape}: nothing near the budget compiles"));
            let errors = nesting_errors(&src(n + 1)).expect("one level more fails");
            assert_eq!(errors.len(), 1, "{shape}: {errors:?}");
            assert!(errors[0].contains("nest more than"), "{shape}: {errors:?}");
            let program = compile("deep.cl", &src(n)).expect("compiles");
            let (group, reference) = both_ways(&program);
            assert_eq!(group, reference, "{shape}: buffers agree");
            assert_ne!(group, vec![0; 16], "{shape}: the kernel stored");
        }
    });
}
