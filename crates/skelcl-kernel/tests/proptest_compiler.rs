//! Property-based differential testing of the whole compiler pipeline:
//! random expression trees are rendered to SkelCL C, compiled (parser →
//! sema → fold → codegen) and executed in the VM; the result must equal
//! direct evaluation of the tree with the shared `value` arithmetic.
//!
//! This exercises parser precedence, implicit conversions, constant
//! folding and the bytecode interpreter against each other — any
//! disagreement between the compiled path and the direct path is a bug in
//! one of them.

use proptest::prelude::*;

use skelcl_kernel::hir::{BinOp, UnOp};
use skelcl_kernel::types::AddressSpace;
use skelcl_kernel::value::{self, Ptr, Value};
use skelcl_kernel::vm::{
    CostCounters, EntryFrame, Exit, HostMemory, ItemGeometry, WorkGroup, WorkItem,
};

/// A host-side expression tree over `long` variables x, y, z.
#[derive(Debug, Clone)]
enum Expr {
    Lit(i64),
    Var(usize),
    Un(UnOp, Box<Expr>),
    Bin(BinOp, Box<Expr>, Box<Expr>),
    Ternary(Box<Expr>, Box<Expr>, Box<Expr>),
    MinMax(bool, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Renders to SkelCL C source (fully parenthesised).
    fn render(&self) -> String {
        match self {
            Expr::Lit(v) => {
                if *v < 0 {
                    format!("(-({}L))", (v.unsigned_abs()))
                } else {
                    format!("({v}L)")
                }
            }
            Expr::Var(i) => ["x", "y", "z"][*i].to_string(),
            Expr::Un(op, e) => {
                let sym = match op {
                    UnOp::Neg => "-",
                    UnOp::BitNot => "~",
                    UnOp::Not => "!",
                };
                if *op == UnOp::Not {
                    // `!` yields bool; convert back to long.
                    format!("((long)({sym}({})))", e.render())
                } else {
                    format!("({sym}({}))", e.render())
                }
            }
            Expr::Bin(op, l, r) => {
                let sym = match op {
                    BinOp::Add => "+",
                    BinOp::Sub => "-",
                    BinOp::Mul => "*",
                    BinOp::BitAnd => "&",
                    BinOp::BitOr => "|",
                    BinOp::BitXor => "^",
                    BinOp::Shl => "<<",
                    BinOp::Shr => ">>",
                    BinOp::Div | BinOp::Rem => unreachable!("not generated"),
                };
                format!("({} {sym} {})", l.render(), r.render())
            }
            Expr::Ternary(c, t, f) => {
                format!("(({}) != 0L ? {} : {})", c.render(), t.render(), f.render())
            }
            Expr::MinMax(is_min, l, r) => {
                let f = if *is_min { "min" } else { "max" };
                format!("{f}({}, {})", l.render(), r.render())
            }
        }
    }

    /// Evaluates directly using the same scalar arithmetic as the VM.
    fn eval(&self, vars: &[i64; 3]) -> i64 {
        let as_i64 = |v: Value| match v {
            Value::I64(x) => x,
            other => panic!("expected long, got {other:?}"),
        };
        match self {
            Expr::Lit(v) => *v,
            Expr::Var(i) => vars[*i],
            Expr::Un(op, e) => {
                let v = e.eval(vars);
                match op {
                    UnOp::Not => i64::from(v == 0),
                    _ => as_i64(value::unary(*op, Value::I64(v)).expect("unary ok")),
                }
            }
            Expr::Bin(op, l, r) => as_i64(
                value::binary(*op, Value::I64(l.eval(vars)), Value::I64(r.eval(vars)))
                    .expect("no div/rem generated"),
            ),
            Expr::Ternary(c, t, f) => {
                if c.eval(vars) != 0 {
                    t.eval(vars)
                } else {
                    f.eval(vars)
                }
            }
            Expr::MinMax(is_min, l, r) => {
                let (a, b) = (l.eval(vars), r.eval(vars));
                if *is_min {
                    a.min(b)
                } else {
                    a.max(b)
                }
            }
        }
    }
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-1000i64..1000).prop_map(Expr::Lit),
        Just(Expr::Lit(i64::MAX)),
        Just(Expr::Lit(i64::MIN + 1)),
        (0usize..3).prop_map(Expr::Var),
    ];
    leaf.prop_recursive(5, 64, 3, |inner| {
        prop_oneof![
            (
                prop_oneof![Just(UnOp::Neg), Just(UnOp::BitNot), Just(UnOp::Not)],
                inner.clone()
            )
                .prop_map(|(op, e)| Expr::Un(op, Box::new(e))),
            (
                prop_oneof![
                    Just(BinOp::Add),
                    Just(BinOp::Sub),
                    Just(BinOp::Mul),
                    Just(BinOp::BitAnd),
                    Just(BinOp::BitOr),
                    Just(BinOp::BitXor),
                    Just(BinOp::Shl),
                    Just(BinOp::Shr),
                ],
                inner.clone(),
                inner.clone()
            )
                .prop_map(|(op, l, r)| Expr::Bin(op, Box::new(l), Box::new(r))),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(c, t, f)| Expr::Ternary(
                Box::new(c),
                Box::new(t),
                Box::new(f)
            )),
            (any::<bool>(), inner.clone(), inner).prop_map(|(m, l, r)| Expr::MinMax(
                m,
                Box::new(l),
                Box::new(r)
            )),
        ]
    })
}

/// Compiles and runs `expr` as a kernel, returning the VM's result.
fn run_compiled(expr: &Expr, vars: [i64; 3]) -> i64 {
    run_with(expr, vars, &skelcl_kernel::OptConfig::all(), false)
}

/// Compiles `expr` under `cfg` and runs it — through the reference
/// interpreter when `reference` is set — returning the result.
fn run_with(expr: &Expr, vars: [i64; 3], cfg: &skelcl_kernel::OptConfig, reference: bool) -> i64 {
    let source = format!(
        "__kernel void eval(__global long* out, long x, long y, long z) {{\n\
             out[0] = {};\n\
         }}",
        expr.render()
    );
    let program = skelcl_kernel::compile_with_config("prop.cl", &source, cfg)
        .unwrap_or_else(|e| panic!("generated source failed to compile:\n{source}\n{e}"));
    let kernel = program.kernel("eval").expect("kernel");
    let mut mem = HostMemory::new();
    let out = mem.add_buffer(vec![0u8; 8]);
    let args = [
        Value::Ptr(Ptr {
            space: AddressSpace::Global,
            buffer: out,
            byte_offset: 0,
        }),
        Value::I64(vars[0]),
        Value::I64(vars[1]),
        Value::I64(vars[2]),
    ];
    let mut item = WorkItem::new(&program, kernel.func, &args, ItemGeometry::single());
    if reference {
        item.run_reference(&mem, &mut []).expect("kernel runs");
    } else {
        item.run(&mem, &mut []).expect("kernel runs");
    }
    i64::from_le_bytes(mem.bytes(out)[..8].try_into().unwrap())
}

/// Lanes of the group in [`run_lanes`]: two strips, the second a short one.
const LANES: u64 = 70;

/// Compiles `expr` under `cfg` as a kernel whose `x` differs per lane
/// (`xs[gid]`) and runs one group of [`LANES`] items — on the group executor,
/// or item by item on the reference interpreter — returning `out` and the
/// summed counters.
fn run_lanes(
    expr: &Expr,
    vars: [i64; 3],
    cfg: &skelcl_kernel::OptConfig,
    reference: bool,
) -> (Vec<u8>, CostCounters) {
    let source = format!(
        "__kernel void eval(__global long* out, __global const long* xs, long y, long z) {{\n\
             long x = xs[get_global_id(0)];\n\
             out[get_global_id(0)] = {};\n\
         }}",
        expr.render()
    );
    let program = skelcl_kernel::compile_with_config("lanes.cl", &source, cfg)
        .unwrap_or_else(|e| panic!("generated source failed to compile:\n{source}\n{e}"));
    let kernel = program.kernel("eval").expect("kernel");
    let mut mem = HostMemory::new();
    let out = mem.add_buffer(vec![0u8; 8 * LANES as usize]);
    // Small and huge, negative and positive, so ternaries and short-circuits
    // send neighbouring lanes different ways.
    let xs: Vec<i64> = (0..LANES as i64)
        .map(|l| match l % 4 {
            0 => l - 3,
            1 => vars[0].wrapping_mul(2 * l + 1),
            2 => (vars[0] >> (l % 63)).wrapping_neg(),
            _ => vars[0] ^ l,
        })
        .collect();
    let xs = mem.add_buffer(xs.iter().flat_map(|x| x.to_le_bytes()).collect());
    let ptr = |buffer| {
        Value::Ptr(Ptr {
            space: AddressSpace::Global,
            buffer,
            byte_offset: 0,
        })
    };
    let args = [ptr(out), ptr(xs), Value::I64(vars[1]), Value::I64(vars[2])];
    let geometry = ItemGeometry {
        global_size: [LANES, 1, 1],
        local_size: [LANES, 1, 1],
        ..ItemGeometry::single()
    };
    let mut counters = CostCounters::default();
    if reference {
        for lane in 0..LANES {
            let geometry = ItemGeometry {
                global_id: [lane, 0, 0],
                local_id: [lane, 0, 0],
                ..geometry
            };
            let mut item = WorkItem::new(&program, kernel.func, &args, geometry);
            item.run_reference(&mem, &mut []).expect("kernel runs");
            counters.merge(&item.counters);
        }
    } else {
        let entry = EntryFrame::new(&program, kernel, &args);
        let mut group = WorkGroup::default();
        group.arm(geometry, u64::MAX);
        assert_eq!(group.run(&entry, &mem, &mut []), Ok(Exit::Done));
        counters = group.stats.counters;
    }
    (mem.bytes(out), counters)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn compiled_expression_matches_direct_evaluation(
        expr in arb_expr(),
        x in any::<i64>(),
        y in -1000i64..1000,
        z in any::<i64>(),
    ) {
        let vars = [x, y, z];
        let expected = expr.eval(&vars);
        let actual = run_compiled(&expr, vars);
        prop_assert_eq!(actual, expected, "expr: {}", expr.render());
    }

    /// The passes preserve results bit-for-bit: the optimized program
    /// (fast interpreter) must compute exactly what the pass-free program
    /// computes on the reference interpreter.
    #[test]
    fn optimized_pipeline_matches_unoptimized_reference(
        expr in arb_expr(),
        x in any::<i64>(),
        y in -1000i64..1000,
        z in any::<i64>(),
    ) {
        use skelcl_kernel::OptConfig;
        let vars = [x, y, z];
        let oracle = run_with(&expr, vars, &OptConfig::none(), true);
        let optimized = run_with(&expr, vars, &OptConfig::all(), false);
        prop_assert_eq!(optimized, oracle, "expr: {}", expr.render());
    }

    /// Lanes of one group that take different ways through the program
    /// compute what each computes alone: under every optimization setting
    /// the group executor's buffer and summed counters are the reference
    /// interpreter's over the same program, and every buffer is the
    /// pass-free program's.
    #[test]
    fn group_of_divergent_lanes_matches_per_lane_reference(
        expr in arb_expr(),
        x in any::<i64>(),
        y in -1000i64..1000,
        z in any::<i64>(),
    ) {
        use skelcl_kernel::OptConfig;
        let vars = [x, y, z];
        let (oracle, _) = run_lanes(&expr, vars, &OptConfig::none(), true);
        for spec in ["none", "const-prop", "cse", "dce", "licm", "unroll", "1"] {
            let (cfg, rejected) = OptConfig::parse(spec);
            prop_assert!(rejected.is_empty());
            let group = run_lanes(&expr, vars, &cfg, false);
            let items = run_lanes(&expr, vars, &cfg, true);
            prop_assert_eq!(&group.0, &oracle, "{}: expr: {}", spec, expr.render());
            prop_assert_eq!(group, items, "{}: expr: {}", spec, expr.render());
        }
    }

    /// The pretty-printer is a fixed point: parse(print(parse(src))) gives
    /// identical output for generated expressions.
    #[test]
    fn pretty_print_round_trip(expr in arb_expr()) {
        use skelcl_kernel::{diag::Diagnostics, parser, pretty, source::SourceFile};
        let src = format!("long f(long x, long y, long z) {{ return {}; }}", expr.render());
        let f1 = SourceFile::new("a.cl", &src);
        let mut d1 = Diagnostics::new();
        let tu1 = parser::parse(&f1, &mut d1);
        prop_assert!(!d1.has_errors());
        let printed = pretty::print_unit(&tu1);
        let f2 = SourceFile::new("b.cl", &printed);
        let mut d2 = Diagnostics::new();
        let tu2 = parser::parse(&f2, &mut d2);
        prop_assert!(!d2.has_errors(), "printed source must reparse:\n{}", printed);
        prop_assert_eq!(pretty::print_unit(&tu2), printed);
    }
}
