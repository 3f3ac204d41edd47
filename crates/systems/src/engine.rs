//! One interface over every single-device GPU engine of the evaluation:
//! the paper's nine peel variants (Table II), their per-lane reference
//! oracle, the direct GPU-MPM kernel, and the five baselines of Table III.
//!
//! Each [`Engine`] value runs through one [`Engine::run`] on a fresh device
//! or [`Engine::run_in`] in a caller's context, and returns one [`Run`].
//! What an engine needs besides the graph and the device travels in one
//! [`EngineOptions`]. [`Engine::all`] is the one list of engines that every
//! "each engine" test iterates.
//!
//! The sharded engine ([`kcore_gpu::decompose_multi`]) stays outside: it
//! runs one context per device, so it has no `run_in`, and it charges a
//! fleet clock that no single [`SimReport`](kcore_gpusim::SimReport)
//! describes.

use crate::{gswitch, gunrock, medusa, vetga, FrameworkCosts};
use kcore_gpu::{mpm_gpu, Buffering, Compaction, PeelConfig, Run};
use kcore_gpusim::{GpuContext, SimError, SimOptions};
use kcore_graph::Csr;

/// A single-device GPU engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// One of Table II's nine peel variants ([`kcore_gpu::decompose_in`]).
    Peel(Compaction, Buffering),
    /// The same variant on the per-lane reference kernels
    /// ([`kcore_gpu::decompose_reference_in`]).
    Reference(Compaction, Buffering),
    /// Direct GPU-MPM ([`mpm_gpu::decompose_mpm_in`]).
    GpuMpm,
    Vetga,
    MedusaMpm,
    MedusaPeel,
    Gunrock,
    /// GSwitch, its round count taken from [`EngineOptions::k_max`] (§V).
    Gswitch,
}

/// What an [`Engine`] runs with besides the graph and the device.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineOptions {
    /// Grid geometry and buffer capacities of the peel and its reference;
    /// the engine sets the compaction and buffering fields.
    pub peel: PeelConfig,
    /// The baselines' framework overheads.
    pub costs: FrameworkCosts,
    /// The graph's `k_max`: GSwitch runs rounds `0..=k_max`, as the paper
    /// hardcodes "the core number of each input graph". A smaller value,
    /// such as the default 0, leaves deeper cores unpeeled.
    pub k_max: u32,
}

/// Table II's (compaction, buffering) pairs, in its column order.
fn variants() -> impl Iterator<Item = (Compaction, Buffering)> {
    let all = PeelConfig::default().all_variants();
    all.into_iter().map(|c| (c.compaction, c.buffering))
}

impl Engine {
    /// The paper's kernel.
    pub const OURS: Engine = Engine::Peel(Compaction::None, Buffering::Global);

    /// Table III's columns, in order.
    pub const TABLE3: [Engine; 6] = [
        Engine::OURS,
        Engine::Vetga,
        Engine::MedusaMpm,
        Engine::MedusaPeel,
        Engine::Gunrock,
        Engine::Gswitch,
    ];

    /// The nine peel variants, in Table II's column order.
    pub fn peel_variants() -> impl Iterator<Item = Engine> {
        variants().map(|(c, b)| Engine::Peel(c, b))
    }

    /// Every engine: the peel variants, their references, GPU-MPM and the
    /// five baselines.
    pub fn all() -> impl Iterator<Item = Engine> {
        let references = variants().map(|(c, b)| Engine::Reference(c, b));
        let baselines = Engine::TABLE3[1..].iter().copied();
        Engine::peel_variants()
            .chain(references)
            .chain([Engine::GpuMpm])
            .chain(baselines)
    }

    /// The engine's column name.
    pub fn name(self) -> String {
        let variant = |compaction, buffering| {
            let cfg = PeelConfig {
                compaction,
                buffering,
                ..PeelConfig::default()
            };
            cfg.variant_name()
        };
        match self {
            Engine::Peel(c, b) => variant(c, b).into(),
            Engine::Reference(c, b) => format!("{} (reference)", variant(c, b)),
            Engine::GpuMpm => "GPU-MPM".into(),
            Engine::Vetga => "VETGA".into(),
            Engine::MedusaMpm => "Medusa-MPM".into(),
            Engine::MedusaPeel => "Medusa-Peel".into(),
            Engine::Gunrock => "Gunrock".into(),
            Engine::Gswitch => "GSwitch".into(),
        }
    }

    /// Runs the engine on `g` on a fresh device described by `sim`.
    pub fn run(self, g: &Csr, sim: &SimOptions, opts: &EngineOptions) -> Result<Run, SimError> {
        self.run_in(&mut sim.context(), g, opts)
    }

    /// Runs the engine on `g` in a caller's context, so peak memory and
    /// partial time stay observable after an OOM or time-limit failure, and
    /// the caller can arm block profiling before the run and read the trace
    /// after it.
    pub fn run_in(
        self,
        ctx: &mut GpuContext,
        g: &Csr,
        opts: &EngineOptions,
    ) -> Result<Run, SimError> {
        let peel = |compaction, buffering| PeelConfig {
            compaction,
            buffering,
            ..opts.peel
        };
        let widen = |run: Result<(Vec<u32>, u32), SimError>| run.map(|(core, n)| (core, n.into()));
        let costs = &opts.costs;
        let (core, iterations) = match self {
            Engine::Peel(c, b) => widen(kcore_gpu::decompose_in(ctx, g, &peel(c, b))),
            Engine::Reference(c, b) => {
                widen(kcore_gpu::decompose_reference_in(ctx, g, &peel(c, b)))
            }
            Engine::GpuMpm => widen(mpm_gpu::decompose_mpm_in(ctx, g)),
            Engine::Vetga => vetga::peel_in(ctx, g, costs),
            Engine::MedusaMpm => medusa::mpm_in(ctx, g, costs),
            Engine::MedusaPeel => medusa::peel_in(ctx, g, costs),
            Engine::Gunrock => gunrock::peel_in(ctx, g, costs),
            Engine::Gswitch => gswitch::peel_in(ctx, g, opts.k_max, costs),
        }?;
        Ok(Run {
            core,
            iterations,
            report: ctx.report(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names trace labels, file slugs and the smoke golden use.
    #[test]
    fn names_are_the_table_columns() {
        let names: Vec<String> = Engine::all().map(Engine::name).collect();
        assert_eq!(names.len(), 24);
        assert_eq!(
            names[..9],
            ["Ours", "SM", "VP", "BC", "BC+SM", "BC+VP", "EC", "EC+SM", "EC+VP"]
        );
        assert_eq!(names[9], "Ours (reference)");
        assert_eq!(
            names[18..],
            [
                "GPU-MPM",
                "VETGA",
                "Medusa-MPM",
                "Medusa-Peel",
                "Gunrock",
                "GSwitch"
            ]
        );
    }
}
