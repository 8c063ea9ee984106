//! Property-based differential testing of the whole compiler pipeline:
//! random expression trees are rendered to SkelCL C, compiled (parser →
//! sema → fold → codegen) and executed in the VM; the result must equal
//! direct evaluation of the tree with the shared `value` arithmetic.
//!
//! This exercises parser precedence, implicit conversions, constant
//! folding and the bytecode interpreter against each other — any
//! disagreement between the compiled path and the direct path is a bug in
//! one of them.
//!
//! A second, typed generator writes kernels over six scalar types whose
//! integer divisions fault on some lanes, and holds the group executor to
//! the reference interpreter on them (first fault, output bits, counters).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use skelcl_kernel::hir::{BinOp, UnOp};
use skelcl_kernel::program::Program;
use skelcl_kernel::types::{AddressSpace, ScalarType};
use skelcl_kernel::value::{self, Ptr, Value};
use skelcl_kernel::vm::{
    CostCounters, EntryFrame, Exit, GroupFault, HostMemory, ItemGeometry, RuntimeError, WorkGroup,
    WorkItem,
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

/// The scalar types of the typed generator below, with their C spellings.
const TYPED: [(ScalarType, &str); 6] = [
    (ScalarType::Int, "int"),
    (ScalarType::UInt, "uint"),
    (ScalarType::UChar, "uchar"),
    (ScalarType::Long, "long"),
    (ScalarType::Float, "float"),
    (ScalarType::Double, "double"),
];

/// Lanes of the typed differential's one work-group.
const TYPED_LANES: usize = 64;

/// Lanes whose integer inputs are 0, so that a division by an input
/// faults there first (or, if the divisor is zero everywhere, at lane 0).
fn zero_lane(lane: usize) -> bool {
    lane % 23 == 17
}

/// A generator of well-typed SkelCL C kernels over `int`, `uint`, `uchar`,
/// `long`, `float` and `double`: typed temporaries (some assigned on both
/// arms of an `if`, so that paths join), explicit casts, arithmetic,
/// shifts, bit operations, comparisons, `&&`/`||`, ternaries, `min`/`max`,
/// and integer `/` and `%`, which fault on the lanes whose divisor is 0.
struct TypedGen {
    rng: StdRng,
    /// The temporaries declared so far: `(type index, name)`.
    temps: Vec<(usize, String)>,
}

impl TypedGen {
    fn pick(&mut self, n: usize) -> usize {
        self.rng.gen_range(0..n)
    }

    fn chance(&mut self, percent: u32) -> bool {
        self.rng.gen_range(0u32..100) < percent
    }

    /// A literal of type `t`.
    fn literal(&mut self, t: usize) -> String {
        let n = self.rng.gen_range(-40i64..=40);
        let quarter = n as f64 / 4.0;
        match TYPED[t].0 {
            ScalarType::Int => format!("({n})"),
            ScalarType::UInt => format!("{}u", n.unsigned_abs()),
            ScalarType::UChar => format!("((uchar){})", n.unsigned_abs() * 6),
            ScalarType::Long => format!("({n}L)"),
            ScalarType::Float => format!("({quarter:?}f)"),
            _ => format!("({quarter:?})"),
        }
    }

    /// An expression of type `t`, at most `depth` operators deep.
    fn expr(&mut self, t: usize, depth: u32) -> String {
        let (ty, name) = TYPED[t];
        if depth == 0 || self.chance(20) {
            let temps: Vec<String> = self
                .temps
                .iter()
                .filter(|(u, _)| *u == t)
                .map(|(_, n)| n.clone())
                .collect();
            return match self.pick(4) {
                0 => self.literal(t),
                1 if !temps.is_empty() => temps[self.pick(temps.len())].clone(),
                _ => format!("v{t}"),
            };
        }
        let d = depth - 1;
        let integer = ty != ScalarType::Float && ty != ScalarType::Double;
        match self.pick(7) {
            0 => {
                let u = self.pick(TYPED.len());
                format!("(({name})({}))", self.expr(u, d))
            }
            1 | 2 => {
                let ops: &[&str] = if integer {
                    &["+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>"]
                } else {
                    &["+", "-", "*", "/"]
                };
                let op = ops[self.pick(ops.len())];
                let (l, r) = (self.expr(t, d), self.expr(t, d));
                format!("(({name})({l} {op} {r}))")
            }
            3 | 4 => {
                let c = self.condition(d);
                let (a, b) = (self.expr(t, d), self.expr(t, d));
                format!("({c} ? {a} : {b})")
            }
            5 => {
                let f = ["min", "max"][self.pick(2)];
                let (a, b) = (self.expr(t, d), self.expr(t, d));
                format!("{f}({a}, {b})")
            }
            _ => {
                let c = self.condition(d);
                format!("(({name})({c}))")
            }
        }
    }

    /// A comparison of two expressions of one random type, or two joined
    /// by `&&` or `||`.
    fn condition(&mut self, depth: u32) -> String {
        let one = |g: &mut TypedGen| {
            let u = g.pick(TYPED.len());
            let op = ["<", "<=", ">", ">=", "==", "!="][g.pick(6)];
            let (a, b) = (g.expr(u, depth / 2), g.expr(u, depth / 2));
            format!("({a} {op} {b})")
        };
        match self.pick(4) {
            0 => format!("({} && {})", one(self), one(self)),
            1 => format!("({} || {})", one(self), one(self)),
            _ => one(self),
        }
    }

    /// A kernel writing an expression of type `TYPED[out]` to `out[gid]`,
    /// after up to three typed temporaries.
    fn kernel(&mut self, out: usize) -> String {
        self.temps.clear();
        let mut body = String::new();
        for k in 0..self.pick(4) {
            let t = self.pick(TYPED.len());
            let temp = format!("t{k}");
            let init = self.expr(t, 3);
            body += &format!("    {} {temp} = {init};\n", TYPED[t].1);
            if self.chance(50) {
                let c = self.condition(2);
                let (a, b) = (self.expr(t, 3), self.expr(t, 3));
                body += &format!("    if {c} {{ {temp} = {a}; }} else {{ {temp} = {b}; }}\n");
            }
            self.temps.push((t, temp));
        }
        let result = self.expr(out, 4);
        let params: String = TYPED
            .iter()
            .enumerate()
            .map(|(t, (_, name))| format!(", __global const {name}* a{t}"))
            .collect();
        let loads: String = TYPED
            .iter()
            .enumerate()
            .map(|(t, (_, name))| format!("    {name} v{t} = a{t}[gid];\n"))
            .collect();
        format!(
            "__kernel void typed(__global {}* out{params}) {{\n    \
                 int gid = (int)get_global_id(0);\n{loads}{body}    out[gid] = {result};\n}}\n",
            TYPED[out].1
        )
    }
}

/// The bytes of lane `lane`'s input of type `t`: small, large, negative
/// and zero (on the [`zero_lane`]s), so that casts saturate and wrap,
/// ternaries send neighbouring lanes different ways and divisions fault.
fn typed_input(t: usize, lane: usize) -> Vec<u8> {
    let i = lane as i64;
    let n = if zero_lane(lane) {
        0
    } else {
        match lane % 4 {
            0 => i + 1,
            1 => -(i * 37 + 5),
            2 => i.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 20,
            _ => 1 << (lane % 31),
        }
    };
    let x = n as f64 / 3.0;
    match TYPED[t].0 {
        ScalarType::Int => (n as i32).to_le_bytes().to_vec(),
        ScalarType::UInt => (n as u32).to_le_bytes().to_vec(),
        ScalarType::UChar => vec![n as u8],
        ScalarType::Long => n.to_le_bytes().to_vec(),
        ScalarType::Float => (x as f32).to_le_bytes().to_vec(),
        _ => x.to_le_bytes().to_vec(),
    }
}

/// What one run of a typed kernel did: its first fault in item order
/// (lane and error), else the output bytes and the summed counters.
type TypedRun = Result<(Vec<u8>, CostCounters), (usize, RuntimeError)>;

/// Runs the kernel `typed` of `program` (output type `TYPED[out]`) over
/// fresh buffers, as one [`TYPED_LANES`]-lane work-group or — when
/// `reference` is set — item by item in order on the reference
/// interpreter, stopping at the first fault.
fn run_typed(program: &Program, out: usize, reference: bool) -> TypedRun {
    let mut mem = HostMemory::new();
    let ptr = |buffer| {
        Value::Ptr(Ptr {
            space: AddressSpace::Global,
            buffer,
            byte_offset: 0,
        })
    };
    let size = TYPED[out].0.size_bytes();
    let mut args = vec![ptr(mem.add_buffer(vec![0u8; size * TYPED_LANES]))];
    for t in 0..TYPED.len() {
        let bytes = (0..TYPED_LANES).flat_map(|l| typed_input(t, l)).collect();
        args.push(ptr(mem.add_buffer(bytes)));
    }
    let kernel = program.kernel("typed").expect("kernel");
    let geometry = ItemGeometry {
        global_size: [TYPED_LANES as u64, 1, 1],
        local_size: [TYPED_LANES as u64, 1, 1],
        ..ItemGeometry::single()
    };
    let mut counters = CostCounters::default();
    if reference {
        for lane in 0..TYPED_LANES {
            let id = [lane as u64, 0, 0];
            let geometry = ItemGeometry {
                global_id: id,
                local_id: id,
                ..geometry
            };
            let mut item = WorkItem::new(program, kernel.func, &args, geometry);
            item.run_reference(&mem, &mut [])
                .map_err(|error| (lane, error))?;
            counters.merge(&item.counters);
        }
    } else {
        let entry = EntryFrame::new(program, kernel, &args);
        let mut group = WorkGroup::default();
        group.arm(geometry, u64::MAX);
        match group.run(&entry, &mem, &mut []) {
            Ok(exit) => assert_eq!(exit, Exit::Done),
            Err(GroupFault::Lane { lane, error }) => return Err((lane, error)),
            Err(other) => panic!("a barrier-free kernel reported {other:?}"),
        }
        counters = group.stats.counters;
    }
    Ok((mem.bytes(0), counters))
}

/// The typed differential: generated kernels over six scalar types, each
/// compiled under `OptConfig::all()` and `none()` and run as one 64-lane
/// work-group and as 64 reference items. Under each setting the two runs
/// give the same first fault in item order, or the same output bits and
/// summed counters; and the two settings give the same outcome. On a fault
/// only the fault is compared: the group retires lanes above the faulting
/// one mid-kernel, which the item-by-item run never starts.
#[test]
fn typed_programs_match_the_reference_on_a_group() {
    use skelcl_kernel::OptConfig;
    let mut gen = TypedGen {
        rng: StdRng::seed_from_u64(20_130_901),
        temps: Vec::new(),
    };
    let (mut ok, mut faulted) = (0, 0);
    for case in 0..1000 {
        let out = gen.pick(TYPED.len());
        let source = gen.kernel(out);
        let mut outcomes = Vec::new();
        for cfg in [OptConfig::all(), OptConfig::none()] {
            let program = skelcl_kernel::compile_with_config("typed.cl", &source, &cfg)
                .unwrap_or_else(|e| panic!("case {case} failed to compile:\n{source}\n{e}"));
            let group = run_typed(&program, out, false);
            let items = run_typed(&program, out, true);
            match (&group, &items) {
                (Err(a), Err(b)) => assert_eq!(a, b, "case {case}: first fault\n{source}"),
                (Ok(a), Ok(b)) => assert_eq!(a, b, "case {case}: bits, counters\n{source}"),
                _ => panic!("case {case}: group {group:?}, items {items:?}\n{source}"),
            }
            outcomes.push(group.map(|(bits, _)| bits));
        }
        assert_eq!(
            outcomes[0], outcomes[1],
            "case {case}: all vs none\n{source}"
        );
        match outcomes[0] {
            Ok(_) => ok += 1,
            Err(_) => faulted += 1,
        }
    }
    // The generator keeps both kinds of case in the mix.
    assert!(
        ok >= 400 && faulted >= 100,
        "{ok} ran through, {faulted} faulted"
    );
}
