//! Registry of the paper's 20 evaluation datasets (Table I), each mapped to a
//! deterministic synthetic stand-in at reduced scale.
//!
//! The real inputs are multi-gigabyte public downloads (SNAP / LAW / KONECT).
//! Each [`Dataset`] records the paper's published statistics *and* a seeded
//! generator configuration whose output mirrors the dataset's category-typical
//! structure: degree regime, skew, and core-number regime (pinned with
//! [`crate::gen::plant_clique`] where the paper's `k_max` comes from dense
//! local structure that uniform down-sampling would destroy). Scale factors
//! run from ~1/10 (smallest graphs) to ~1/400 (the billion-edge crawls); see
//! DESIGN.md for why relative algorithm orderings survive the down-scaling.

use crate::csr::Csr;
use crate::gen;

/// The statistics row the paper publishes for a dataset (Table I).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperRow {
    /// `|V|` in the paper.
    pub num_vertices: u64,
    /// `|E|` in the paper.
    pub num_edges: u64,
    /// Average degree in the paper.
    pub avg_degree: f64,
    /// Degree standard deviation in the paper.
    pub degree_std: f64,
    /// Max degree in the paper.
    pub max_degree: u64,
    /// `k_max` in the paper.
    pub k_max: u32,
}

/// Generator configuration of a stand-in.
#[derive(Debug, Clone)]
pub enum GenSpec {
    /// Preferential attachment with attachment count drawn from
    /// `m_lo..=m_hi` per vertex (degrees span `m_lo` upward, so every
    /// k-shell is populated like real interaction networks).
    Ba { n: u32, m_lo: u32, m_hi: u32 },
    /// R-MAT with Graph500 skew.
    Rmat { scale: u32, m: u64 },
    /// Super-hub skew (communication / tracker networks).
    Hubs {
        n: u32,
        m_background: u64,
        hubs: u32,
        hub_fraction: f64,
    },
    /// Web-crawl-like (host communities + skewed backbone).
    Web {
        n: u32,
        host_size: u32,
        intra_p: f64,
        m_backbone: u64,
    },
    /// Collaboration (union of overlapping cliques).
    Collab {
        n: u32,
        groups: u32,
        min_size: u32,
        max_size: u32,
    },
}

/// One dataset of Table I: name, category, paper statistics, stand-in config.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Dataset name as printed in the paper.
    pub name: &'static str,
    /// Table I category.
    pub category: &'static str,
    /// The paper's published statistics.
    pub paper: PaperRow,
    /// Stand-in generator.
    pub spec: GenSpec,
    /// Clique planted on top to pin the `k_max` regime (0 = none).
    pub core_boost: u32,
    /// Generator seed.
    pub seed: u64,
}

impl Dataset {
    /// Generates the stand-in graph (deterministic for the registry entry).
    pub fn generate(&self) -> Csr {
        let base = match self.spec {
            GenSpec::Ba { n, m_lo, m_hi } => {
                gen::preferential_attachment(n, m_lo..=m_hi, self.seed)
            }
            GenSpec::Rmat { scale, m } => {
                gen::rmat(scale, m, gen::RmatParams::graph500(), self.seed)
            }
            GenSpec::Hubs {
                n,
                m_background,
                hubs,
                hub_fraction,
            } => gen::power_law_hubs(n, m_background, hubs, hub_fraction, self.seed),
            GenSpec::Web {
                n,
                host_size,
                intra_p,
                m_backbone,
            } => gen::web_crawl(n, host_size, intra_p, m_backbone, self.seed),
            GenSpec::Collab {
                n,
                groups,
                min_size,
                max_size,
            } => gen::overlapping_cliques(n, groups, min_size..=max_size, self.seed),
        };
        let boosted = if self.core_boost >= 2 {
            gen::plant_clique(&base, self.core_boost, self.seed ^ 0x9e37_79b9)
        } else {
            base
        };
        // Break the generators' artificial ID↔degree correlation (see
        // `gen::relabel`): real datasets assign IDs near-arbitrarily.
        gen::relabel(&boosted, self.seed ^ 0x5bd1_e995)
    }

    /// Like [`Dataset::generate`], but served from the `KCORE_CACHE_DIR`
    /// binary cache when enabled (see [`crate::cache`]). The returned graph
    /// is identical either way; only wall-clock changes.
    pub fn generate_cached(&self) -> Csr {
        crate::cache::load_or_generate(self)
    }
}

macro_rules! row {
    ($v:expr, $e:expr, $davg:expr, $std:expr, $dmax:expr, $kmax:expr) => {
        PaperRow {
            num_vertices: $v,
            num_edges: $e,
            avg_degree: $davg,
            degree_std: $std,
            max_degree: $dmax,
            k_max: $kmax,
        }
    };
}

/// The 20 datasets of Table I, in the paper's order (ascending `|E|`).
pub fn registry() -> Vec<Dataset> {
    vec![
        Dataset {
            name: "amazon0601",
            category: "Co-purchasing",
            paper: row!(403_394, 3_387_388, 16.8, 15.0, 2_752, 10),
            spec: GenSpec::Ba {
                n: 40_000,
                m_lo: 1,
                m_hi: 16,
            },
            core_boost: 0, // attachment up to 16 naturally lands k_max ≈ 8-12
            seed: 0xA001,
        },
        Dataset {
            name: "wiki-Talk",
            category: "Communication",
            paper: row!(2_394_385, 5_021_410, 4.2, 103.0, 100_029, 131),
            spec: GenSpec::Hubs {
                n: 120_000,
                m_background: 200_000,
                hubs: 4,
                hub_fraction: 0.04,
            },
            core_boost: 34,
            seed: 0xA002,
        },
        Dataset {
            name: "web-Google",
            category: "Web Graph",
            paper: row!(875_713, 5_105_039, 11.7, 39.0, 6_332, 44),
            spec: GenSpec::Web {
                n: 60_000,
                host_size: 8,
                intra_p: 0.5,
                m_backbone: 150_000,
            },
            core_boost: 24,
            seed: 0xA003,
        },
        Dataset {
            name: "web-BerkStan",
            category: "Web Graph",
            paper: row!(685_230, 7_600_595, 22.2, 285.0, 84_230, 201),
            spec: GenSpec::Web {
                n: 50_000,
                host_size: 14,
                intra_p: 0.6,
                m_backbone: 120_000,
            },
            core_boost: 64,
            seed: 0xA004,
        },
        Dataset {
            name: "as-Skitter",
            category: "Internet Topology",
            paper: row!(1_696_415, 11_095_298, 13.1, 137.0, 35_455, 111),
            spec: GenSpec::Rmat {
                scale: 17,
                m: 450_000,
            },
            core_boost: 40,
            seed: 0xA005,
        },
        Dataset {
            name: "patentcite",
            category: "Citation Network",
            paper: row!(3_774_768, 16_518_948, 8.8, 10.0, 793, 64),
            spec: GenSpec::Ba {
                n: 150_000,
                m_lo: 1,
                m_hi: 10,
            },
            core_boost: 28,
            seed: 0xA006,
        },
        Dataset {
            name: "in-2004",
            category: "Web Graph",
            paper: row!(1_382_908, 16_917_053, 24.5, 147.0, 21_869, 488),
            spec: GenSpec::Web {
                n: 55_000,
                host_size: 16,
                intra_p: 0.7,
                m_backbone: 150_000,
            },
            core_boost: 96,
            seed: 0xA007,
        },
        Dataset {
            name: "dblp-author",
            category: "Collaboration",
            paper: row!(5_624_219, 24_564_102, 8.7, 11.0, 1_389, 14),
            spec: GenSpec::Collab {
                n: 220_000,
                groups: 120_000,
                min_size: 2,
                max_size: 6,
            },
            core_boost: 0, // overlapping small cliques naturally land k_max ≈ 10-16
            seed: 0xA008,
        },
        Dataset {
            name: "wb-edu",
            category: "Web Graph",
            paper: row!(9_845_725, 57_156_537, 11.6, 49.0, 25_781, 448),
            spec: GenSpec::Web {
                n: 200_000,
                host_size: 10,
                intra_p: 0.6,
                m_backbone: 500_000,
            },
            core_boost: 90,
            seed: 0xA009,
        },
        Dataset {
            name: "soc-LiveJournal1",
            category: "Social Network",
            paper: row!(4_847_571, 68_993_773, 28.5, 52.0, 20_333, 372),
            spec: GenSpec::Rmat {
                scale: 17,
                m: 1_400_000,
            },
            core_boost: 76,
            seed: 0xA010,
        },
        Dataset {
            name: "wikipedia-link-de",
            category: "Web Graph",
            paper: row!(3_603_726, 96_865_851, 53.8, 498.0, 434_234, 837),
            spec: GenSpec::Web {
                n: 72_000,
                host_size: 20,
                intra_p: 0.5,
                m_backbone: 1_000_000,
            },
            core_boost: 120,
            seed: 0xA011,
        },
        Dataset {
            name: "hollywood-2009",
            category: "Collaboration",
            paper: row!(1_139_905, 113_891_327, 199.8, 272.0, 11_467, 2_208),
            spec: GenSpec::Collab {
                n: 23_000,
                groups: 4_000,
                min_size: 10,
                max_size: 40,
            },
            core_boost: 220,
            seed: 0xA012,
        },
        Dataset {
            name: "com-Orkut",
            category: "Social Network",
            paper: row!(3_072_441, 117_185_083, 76.3, 155.0, 33_313, 253),
            spec: GenSpec::Rmat {
                scale: 16,
                m: 2_300_000,
            },
            core_boost: 64,
            seed: 0xA013,
        },
        Dataset {
            name: "trackers",
            category: "Web Graph",
            paper: row!(27_665_730, 140_613_762, 10.2, 2_774.0, 11_571_953, 438),
            spec: GenSpec::Hubs {
                n: 280_000,
                m_background: 1_200_000,
                hubs: 3,
                hub_fraction: 0.2,
            },
            core_boost: 60,
            seed: 0xA014,
        },
        Dataset {
            name: "indochina-2004",
            category: "Web Graph",
            paper: row!(7_414_866, 194_109_311, 52.4, 391.0, 256_425, 6_869),
            spec: GenSpec::Web {
                n: 74_000,
                host_size: 26,
                intra_p: 0.75,
                m_backbone: 800_000,
            },
            core_boost: 400,
            seed: 0xA015,
        },
        Dataset {
            name: "uk-2002",
            category: "Web Graph",
            paper: row!(18_520_486, 298_113_762, 32.2, 145.0, 194_955, 943),
            spec: GenSpec::Web {
                n: 92_000,
                host_size: 18,
                intra_p: 0.6,
                m_backbone: 900_000,
            },
            core_boost: 150,
            seed: 0xA016,
        },
        Dataset {
            name: "arabic-2005",
            category: "Web Graph",
            paper: row!(22_744_080, 639_999_458, 56.3, 555.0, 575_628, 3_247),
            spec: GenSpec::Web {
                n: 57_000,
                host_size: 24,
                intra_p: 0.7,
                m_backbone: 900_000,
            },
            core_boost: 280,
            seed: 0xA017,
        },
        Dataset {
            name: "uk-2005",
            category: "Web Graph",
            paper: row!(39_459_925, 936_364_282, 47.5, 1_536.0, 1_776_858, 588),
            spec: GenSpec::Web {
                n: 99_000,
                host_size: 22,
                intra_p: 0.6,
                m_backbone: 1_400_000,
            },
            core_boost: 110,
            seed: 0xA018,
        },
        Dataset {
            name: "webbase-2001",
            category: "Web Graph",
            paper: row!(118_142_155, 1_019_903_190, 17.3, 76.0, 263_176, 1_506),
            spec: GenSpec::Web {
                n: 295_000,
                host_size: 9,
                intra_p: 0.55,
                m_backbone: 1_500_000,
            },
            core_boost: 220,
            seed: 0xA019,
        },
        Dataset {
            name: "it-2004",
            category: "Web Graph",
            paper: row!(41_291_594, 1_150_725_436, 55.7, 883.0, 1_326_744, 3_224),
            spec: GenSpec::Web {
                n: 103_000,
                host_size: 25,
                intra_p: 0.7,
                m_backbone: 1_600_000,
            },
            core_boost: 290,
            seed: 0xA020,
        },
    ]
}

/// Looks up a dataset by its Table I name (case-insensitive).
pub fn by_name(name: &str) -> Option<Dataset> {
    registry()
        .into_iter()
        .find(|d| d.name.eq_ignore_ascii_case(name))
}

/// Higher-fidelity variants of three mid-size stand-ins at roughly twice
/// the edge budget, halving their Table I scale factor (the three R-MAT
/// rows had the coarsest mid-size stand-ins: ~1/25 to ~1/50).
///
/// These are **new** rows, not replacements: the original registry entries
/// stay byte-for-byte untouched so every golden trace and recorded bench
/// snapshot keyed to them remains valid. `table1` appends these under an
/// `@2x` suffix to show the improved shape match.
pub fn scaled_up_variants() -> Vec<Dataset> {
    vec![
        Dataset {
            name: "as-Skitter@2x",
            spec: GenSpec::Rmat {
                scale: 18,
                m: 900_000,
            },
            ..by_name("as-Skitter").unwrap()
        },
        Dataset {
            name: "soc-LiveJournal1@2x",
            spec: GenSpec::Rmat {
                scale: 18,
                m: 2_800_000,
            },
            ..by_name("soc-LiveJournal1").unwrap()
        },
        Dataset {
            name: "com-Orkut@2x",
            spec: GenSpec::Rmat {
                scale: 17,
                m: 4_600_000,
            },
            ..by_name("com-Orkut").unwrap()
        },
    ]
}

/// A small fast subset of the registry for smoke tests and examples
/// (`amazon0601`, `web-Google`, `wiki-Talk`), scaled down further.
pub fn smoke_subset() -> Vec<Dataset> {
    let shrink = |mut d: Dataset| {
        d.spec = match d.spec {
            GenSpec::Ba { m_lo, m_hi, .. } => GenSpec::Ba {
                n: 4_000,
                m_lo,
                m_hi,
            },
            GenSpec::Hubs {
                hubs, hub_fraction, ..
            } => GenSpec::Hubs {
                n: 8_000,
                m_background: 15_000,
                hubs,
                hub_fraction,
            },
            GenSpec::Web {
                host_size, intra_p, ..
            } => GenSpec::Web {
                n: 6_000,
                host_size,
                intra_p,
                m_backbone: 15_000,
            },
            other => other,
        };
        d.core_boost = d.core_boost.min(20);
        d
    };
    ["amazon0601", "wiki-Talk", "web-Google"]
        .iter()
        .map(|n| shrink(by_name(n).unwrap()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::GraphStats;

    #[test]
    fn registry_has_twenty_in_paper_order() {
        let r = registry();
        assert_eq!(r.len(), 20);
        assert_eq!(r[0].name, "amazon0601");
        assert_eq!(r[19].name, "it-2004");
        // ascending |E| in the paper, as in Table I
        for w in r.windows(2) {
            assert!(w[0].paper.num_edges <= w[1].paper.num_edges);
        }
    }

    #[test]
    fn by_name_works() {
        assert!(by_name("Amazon0601").is_some());
        assert!(by_name("trackers").is_some());
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn smoke_subset_generates_quickly_and_sanely() {
        for d in smoke_subset() {
            let g = d.generate();
            let s = GraphStats::compute(&g);
            assert!(s.num_vertices > 1_000, "{}: too small", d.name);
            assert!(s.num_edges > 1_000, "{}: too sparse", d.name);
        }
    }

    #[test]
    fn scaled_up_variants_are_new_rows() {
        let ups = scaled_up_variants();
        assert_eq!(ups.len(), 3);
        for up in &ups {
            let base_name = up.name.strip_suffix("@2x").unwrap();
            let base = by_name(base_name).unwrap();
            // same paper row and category; a strictly larger edge budget
            assert_eq!(up.paper, base.paper);
            assert_eq!(up.category, base.category);
            let m_of = |d: &Dataset| match d.spec {
                GenSpec::Rmat { m, .. } => m,
                _ => panic!("scaled-up variants are R-MAT rows"),
            };
            assert!(m_of(up) >= 2 * m_of(&base), "{}", up.name);
            // and the registry itself is untouched
            assert!(by_name(up.name).is_none());
        }
    }

    #[test]
    fn tracker_standin_has_extreme_skew() {
        // Generate a shrunken trackers to verify the defining property
        // without paying full-scale generation in unit tests.
        let d = Dataset {
            spec: GenSpec::Hubs {
                n: 20_000,
                m_background: 80_000,
                hubs: 3,
                hub_fraction: 0.2,
            },
            core_boost: 20,
            ..by_name("trackers").unwrap()
        };
        let g = d.generate();
        let s = GraphStats::compute(&g);
        assert!(s.degree_std > 3.0 * s.avg_degree);
    }
}
