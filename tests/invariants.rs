//! Property-based tests of the k-core definition and the suite's invariants,
//! over randomly generated graphs.

use kcore::cpu::{self, CoreAlgorithm};
use kcore::gpu::{PeelConfig, SimOptions};
use kcore::gpusim::LaunchConfig;
use kcore::graph::{builder::from_edges, Csr};
use kcore::systems::{Engine, EngineOptions};
use proptest::prelude::*;

/// Strategy: a random simple undirected graph with up to `n` vertices.
fn graph_strategy(max_n: u32, max_m: usize) -> impl Strategy<Value = Csr> {
    (2..=max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n), 0..max_m)
            .prop_map(move |edges| from_edges(n, &edges))
    })
}

/// The engines' options on a graph with core numbers `truth`: a small
/// peel geometry, and GSwitch's round count from the known `k_max`.
fn engine_opts(truth: &[u32]) -> EngineOptions {
    EngineOptions {
        peel: PeelConfig {
            launch: LaunchConfig {
                blocks: 4,
                threads_per_block: 64,
            },
            buf_capacity: 4_096,
            shared_buf_capacity: 64,
            ..PeelConfig::default()
        },
        k_max: cpu::k_max(truth),
        ..EngineOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// BZ output satisfies the definitional checker (consistency at own
    /// level + maximality).
    #[test]
    fn bz_satisfies_definition(g in graph_strategy(60, 240)) {
        let core = cpu::bz::Bz.run(&g);
        prop_assert_eq!(cpu::verify::check_core_numbers(&g, &core), Ok(()));
    }

    /// core(v) <= deg(v), and the k-core induced subgraph has min degree >= k
    /// for every k up to k_max.
    #[test]
    fn kcore_min_degree_property(g in graph_strategy(50, 200)) {
        let core = cpu::bz::Bz.run(&g);
        for (v, &c) in core.iter().enumerate() {
            prop_assert!(c <= g.degree(v as u32));
        }
        let km = cpu::k_max(&core);
        for k in 1..=km {
            let mask = cpu::kcore_mask(&core, k);
            let sub = g.induced_mask(&mask);
            for v in 0..g.num_vertices() {
                if mask[v as usize] {
                    prop_assert!(sub.degree(v) >= k, "k={} vertex {} degree {}", k, v, sub.degree(v));
                }
            }
        }
    }

    /// Shells partition the vertex set.
    #[test]
    fn shells_partition(g in graph_strategy(50, 200)) {
        let core = cpu::bz::Bz.run(&g);
        let shells = cpu::shells(&core);
        let total: usize = shells.iter().map(Vec::len).sum();
        prop_assert_eq!(total, g.num_vertices() as usize);
        // each vertex appears in exactly its own shell
        for (k, shell) in shells.iter().enumerate() {
            for &v in shell {
                prop_assert_eq!(core[v as usize] as usize, k);
            }
        }
    }

    /// Every GPU engine equals BZ on random graphs (the core soundness
    /// property of the whole reproduction). The baselines take framework
    /// shortcuts (GSwitch's hardcoded round count, Medusa's message
    /// materialization, VETGA's full-array vector passes), so their results
    /// agreeing with BZ is what the Table III comparison rests on.
    #[test]
    fn gpu_matches_bz(g in graph_strategy(48, 200)) {
        let truth = cpu::bz::Bz.run(&g);
        let opts = engine_opts(&truth);
        for engine in Engine::all() {
            let run = engine.run(&g, &SimOptions::default(), &opts).unwrap();
            prop_assert_eq!(&run.core, &truth, "{}", engine.name());
        }
    }

    /// All nine GPU variants agree with each other.
    #[test]
    fn gpu_variants_agree(g in graph_strategy(40, 150)) {
        let opts = engine_opts(&[]);
        let base = Engine::OURS.run(&g, &SimOptions::default(), &opts).unwrap().core;
        for engine in Engine::peel_variants() {
            let run = engine.run(&g, &SimOptions::default(), &opts).unwrap();
            prop_assert_eq!(&run.core, &base, "variant {}", engine.name());
        }
    }

    /// Work-bound certificates: counter identities every peel variant,
    /// production and reference, meets whatever the cost constants are,
    /// read from one trace per run and derived from the kernels, not from
    /// the cost model. Setup uploads the narrowed offsets, the neighbours
    /// and the degrees, 4·(2n + 1 + arcs) bytes, and nothing else uploads;
    /// each round reads back the one-word `gpu_count` and the result reads
    /// back `deg`, 4n bytes. The loop kernel's global atomics are its degree
    /// decrements plus one `gpu_count` add per block per launch. Processing
    /// v decrements u only while u is above v's level, so every arc (v, u)
    /// into a higher core decrements once and an arc into a lower core
    /// never. Within one core, whichever end is processed first may
    /// decrement the other, which then sits at that level and takes no
    /// decrement back: at most one per edge, so the count lies between the
    /// arcs with core(u) > core(v) and those with core(u) ≥ core(v), and
    /// below the first plus half the same-core arcs (arXiv 2502.08042
    /// bounds peeling by O(n + m) work).
    #[test]
    fn peel_work_is_certified(g in graph_strategy(40, 160)) {
        let truth = cpu::bz::Bz.run(&g);
        let opts = engine_opts(&truth);
        let (n, arcs) = (u64::from(g.num_vertices()), g.num_arcs());
        let (mut above, mut level) = (0u64, 0u64);
        for v in 0..g.num_vertices() {
            for &u in g.neighbors(v) {
                let (cu, cv) = (truth[u as usize], truth[v as usize]);
                above += u64::from(cu > cv);
                level += u64::from(cu >= cv);
            }
        }
        // same-core arcs come in pairs, one per direction of an edge
        let most = above + (level - above) / 2;
        let peels = Engine::all().filter(|e| matches!(e, Engine::Peel(..) | Engine::Reference(..)));
        for engine in peels {
            let name = engine.name();
            let mut ctx = SimOptions::default().context();
            let rounds = engine.run_in(&mut ctx, &g, &opts).unwrap().iterations;
            let t = ctx.trace("certificate");
            let phase = |p: &str| t.phases.iter().find(|s| s.phase == p).unwrap();
            prop_assert_eq!(phase("Setup").h2d_bytes, 4 * (2 * n + 1 + arcs), "{}", name);
            prop_assert_eq!(t.totals.h2d_bytes, phase("Setup").h2d_bytes, "{}", name);
            prop_assert_eq!(phase("Sync").d2h_bytes, 4 * rounds, "{}", name);
            prop_assert_eq!(phase("Result").d2h_bytes, 4 * n, "{}", name);
            prop_assert_eq!(t.totals.d2h_bytes, 4 * rounds + 4 * n, "{}", name);
            let loops = || t.launches.iter().filter(|l| l.name == "loop");
            let atomics: u64 = loops().map(|l| l.counters.global_atomics).sum();
            let count_adds: u64 = loops().map(|l| u64::from(l.config.blocks)).sum();
            prop_assert!(atomics >= count_adds, "{}: {} atomics", name, atomics);
            let decrements = atomics - count_adds;
            prop_assert!(
                above <= decrements && decrements <= most,
                "{}: {} decrements outside [{}, {}] (arcs at or above: {})",
                name, decrements, above, most, level
            );
        }
    }

    /// Parallel CPU algorithms are deterministic in their *result* despite
    /// scheduling nondeterminism.
    #[test]
    fn parallel_results_deterministic(g in graph_strategy(40, 160)) {
        let a = cpu::pkc::ParallelPkc { threads: 4 }.run(&g);
        let b = cpu::pkc::ParallelPkc { threads: 4 }.run(&g);
        let c = cpu::park::ParallelPark { threads: 3 }.run(&g);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&a, &c);
    }

    /// MPM's estimate sequence is monotone: the fixpoint is bounded above by
    /// the degree and below by the true core.
    #[test]
    fn mpm_bounds(g in graph_strategy(40, 160)) {
        let truth = cpu::bz::Bz.run(&g);
        let est = cpu::mpm::SerialMpm.run(&g);
        for v in 0..g.num_vertices() as usize {
            prop_assert!(est[v] <= g.degree(v as u32));
            prop_assert_eq!(est[v], truth[v]);
        }
    }

    /// Degeneracy bound: k_max <= max degree, and k_max*(k_max+1)/2 <= |E|.
    #[test]
    fn kmax_bounds(g in graph_strategy(50, 200)) {
        let core = cpu::bz::Bz.run(&g);
        let km = cpu::k_max(&core) as u64;
        prop_assert!(km <= g.max_degree() as u64);
        prop_assert!(km * (km + 1) / 2 <= g.num_edges());
    }
}
