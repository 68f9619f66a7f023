//! Sweep-grid expansion into a job DAG.
//!
//! A [`crate::spec::SweepSpec`] expands into four job stages with
//! dependency edges pointing upstream:
//!
//! ```text
//! Dataset(scale, seed) ── Market(recipe) ── Partition(k) ── Solve(cohort, method)
//! ```
//!
//! Expansion **deduplicates shared prefixes**: a repeated seed value maps
//! to the one `Dataset` node it already created, and a repeated
//! `(scale, seed, recipe)` tuple maps to the one `Market` node — so
//! duplicate axis values cost nothing upstream of the solve stage (the
//! solve cells themselves are collapsed later by the fingerprint-keyed
//! solve cache, which also catches duplicates the grid structure cannot
//! see). Jobs are appended in one deterministic grid order (scale → seed
//! → recipe, in [`SweepSpec::recipes`] order → cohort → method), and
//! results are assembled in cell order regardless of the execution
//! interleaving — the `DESIGN.md` §6 contract at fleet scale.

use crate::spec::{Recipe, ScaleSpec, SweepSpec};

/// Index into [`JobDag::jobs`].
pub type JobId = usize;

/// Which sub-market a solve cell runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cohort {
    /// The unrestricted market.
    Whole,
    /// Activity cohort `k` (of the spec's `cohorts` partition).
    Seg(u32),
}

impl std::fmt::Display for Cohort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Cohort::Whole => write!(f, "all"),
            Cohort::Seg(k) => write!(f, "c{k}"),
        }
    }
}

/// The deterministic per-market solve-cell axis: the whole market first,
/// then each activity cohort in order, with the method list inner. One
/// definition shared by [`JobDag::expand`] and the live engine
/// (`crate::live`), so an incremental re-solve's cells line up one-to-one
/// with the sweep cells of the same market.
pub fn cell_axis(cohorts: usize, methods: &[String]) -> Vec<(Cohort, String)> {
    let mut cohort_axis = vec![Cohort::Whole];
    cohort_axis.extend((0..cohorts as u32).map(Cohort::Seg));
    let mut out = Vec::with_capacity(cohort_axis.len() * methods.len());
    for &cohort in &cohort_axis {
        for method in methods {
            out.push((cohort, method.clone()));
        }
    }
    out
}

/// One node of the DAG. Stage references (`dataset`, `market`,
/// `partition`) are indices into the respective stage lists
/// ([`JobDag::datasets`] etc.), which is what the executor consumes;
/// [`Job::deps`] carries the same edges as raw [`JobId`]s.
#[derive(Debug, Clone, PartialEq)]
pub enum JobKind {
    /// Generate the synthetic ratings dataset for `(scale, seed)`.
    Dataset { scale: ScaleSpec, seed: u64 },
    /// Build a market from a dataset under one recipe.
    Market { dataset: usize, recipe: Recipe },
    /// Partition a market into activity cohorts (present iff `cohorts ≥ 1`).
    Partition { market: usize, cohorts: usize },
    /// Run one configurator on one cohort of one market.
    Solve { market: usize, cohort: Cohort, method: String },
}

/// A DAG node: its kind plus upstream dependencies.
#[derive(Debug, Clone)]
pub struct Job {
    pub kind: JobKind,
    pub deps: Vec<JobId>,
}

/// Report metadata of one solve cell, resolved at expansion time so the
/// report never has to chase dependency edges.
#[derive(Debug, Clone)]
pub struct CellMeta {
    pub job: JobId,
    /// Stage index into [`JobDag::markets`].
    pub market: usize,
    pub scale: ScaleSpec,
    pub seed: u64,
    pub recipe: Recipe,
    pub cohort: Cohort,
    pub method: String,
}

/// The expanded sweep: all jobs plus per-stage index lists (each entry a
/// [`JobId`]) in deterministic order.
#[derive(Debug, Clone)]
pub struct JobDag {
    pub jobs: Vec<Job>,
    pub datasets: Vec<JobId>,
    pub markets: Vec<JobId>,
    pub partitions: Vec<JobId>,
    /// One entry per solve cell, in grid order.
    pub cells: Vec<CellMeta>,
}

/// Stage/edge counts for the report footer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DagSummary {
    pub datasets: usize,
    pub markets: usize,
    pub partitions: usize,
    pub solves: usize,
    pub edges: usize,
}

impl JobDag {
    /// Expand a spec into the job DAG (see the module docs for ordering
    /// and deduplication guarantees). Panics on a spec whose axes do not
    /// parse — run [`SweepSpec::validate`] first.
    pub fn expand(spec: &SweepSpec) -> JobDag {
        let mut dag = JobDag {
            jobs: Vec::new(),
            datasets: Vec::new(),
            markets: Vec::new(),
            partitions: Vec::new(),
            cells: Vec::new(),
        };
        // (key, stage index) lists; linear scans keep the lookup
        // deterministic with no hashing of f64 keys.
        let mut dataset_keys: Vec<(ScaleSpec, u64)> = Vec::new();
        let mut market_keys: Vec<(usize, String)> = Vec::new(); // (dataset idx, recipe id)
        let mut partition_of: Vec<JobId> = Vec::new(); // per market stage index
        let recipes = spec.recipes().expect("spec validated before expansion");

        for &scale in &spec.scales {
            for &seed in &spec.seeds {
                let ds_idx = match dataset_keys.iter().position(|&k| k == (scale, seed)) {
                    Some(i) => i,
                    None => {
                        let job = dag.push(JobKind::Dataset { scale, seed }, Vec::new());
                        dataset_keys.push((scale, seed));
                        dag.datasets.push(job);
                        dag.datasets.len() - 1
                    }
                };
                for &recipe in &recipes {
                    let mkey = (ds_idx, recipe.id());
                    let mk_idx = match market_keys.iter().position(|k| *k == mkey) {
                        Some(i) => i,
                        None => {
                            let dep = dag.datasets[ds_idx];
                            let job =
                                dag.push(JobKind::Market { dataset: ds_idx, recipe }, vec![dep]);
                            market_keys.push(mkey);
                            dag.markets.push(job);
                            let mk = dag.markets.len() - 1;
                            if spec.cohorts >= 1 {
                                let pj = dag.push(
                                    JobKind::Partition { market: mk, cohorts: spec.cohorts },
                                    vec![job],
                                );
                                dag.partitions.push(pj);
                                partition_of.push(pj);
                            }
                            mk
                        }
                    };
                    let upstream =
                        if spec.cohorts >= 1 { partition_of[mk_idx] } else { dag.markets[mk_idx] };
                    for (cohort, method) in cell_axis(spec.cohorts, &spec.methods) {
                        let job = dag.push(
                            JobKind::Solve { market: mk_idx, cohort, method: method.clone() },
                            vec![upstream],
                        );
                        dag.cells.push(CellMeta {
                            job,
                            market: mk_idx,
                            scale,
                            seed,
                            recipe,
                            cohort,
                            method,
                        });
                    }
                }
            }
        }
        dag
    }

    fn push(&mut self, kind: JobKind, deps: Vec<JobId>) -> JobId {
        self.jobs.push(Job { kind, deps });
        self.jobs.len() - 1
    }

    /// Stage/edge counts.
    pub fn summary(&self) -> DagSummary {
        DagSummary {
            datasets: self.datasets.len(),
            markets: self.markets.len(),
            partitions: self.partitions.len(),
            solves: self.cells.len(),
            edges: self.jobs.iter().map(|j| j.deps.len()).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(seeds: &str, thetas: &str, cohorts: usize) -> SweepSpec {
        let mut spec = SweepSpec::default();
        spec.apply("methods", "components,pure_matching").unwrap();
        spec.apply("scales", "tiny").unwrap();
        spec.apply("seeds", seeds).unwrap();
        spec.apply("thetas", thetas).unwrap();
        spec.cohorts = cohorts;
        spec
    }

    #[test]
    fn grid_expands_in_deterministic_order() {
        let dag = JobDag::expand(&spec("1,2", "0,0.05", 0));
        let s = dag.summary();
        assert_eq!(s.datasets, 2);
        assert_eq!(s.markets, 4);
        assert_eq!(s.partitions, 0);
        assert_eq!(s.solves, 2 * 2 * 2); // seeds × θ × methods, whole market
                                         // Cell order: seed-major, then θ, then method.
        assert_eq!(dag.cells[0].seed, 1);
        assert_eq!(dag.cells[0].method, "Components");
        assert_eq!(dag.cells[1].method, "Pure Matching");
        assert_eq!(dag.cells[2].recipe.params.theta, 0.05);
        assert!(dag.cells.iter().all(|c| c.cohort == Cohort::Whole));
    }

    #[test]
    fn duplicate_axis_values_share_upstream_jobs() {
        let dag = JobDag::expand(&spec("7,7", "0", 0));
        let s = dag.summary();
        assert_eq!(s.datasets, 1, "repeated seed must reuse the dataset job");
        assert_eq!(s.markets, 1, "repeated (scale, seed, θ) must reuse the market job");
        assert_eq!(s.solves, 4, "solve cells are expanded verbatim (cache collapses them)");
        assert_eq!(dag.cells[0].market, dag.cells[2].market);
    }

    #[test]
    fn cohort_axis_adds_partition_jobs_and_cells() {
        let dag = JobDag::expand(&spec("1", "0", 3));
        let s = dag.summary();
        assert_eq!(s.partitions, 1);
        assert_eq!(s.solves, 2 * (1 + 3)); // methods × (whole + 3 cohorts)
        assert_eq!(dag.cells[0].cohort, Cohort::Whole);
        assert_eq!(dag.cells[2].cohort, Cohort::Seg(0));
        // Every solve depends on the partition job; the partition on the
        // market; the market on the dataset.
        let solve = &dag.jobs[dag.cells[2].job];
        assert_eq!(solve.deps, vec![dag.partitions[0]]);
        assert_eq!(dag.jobs[dag.partitions[0]].deps, vec![dag.markets[0]]);
        assert_eq!(dag.jobs[dag.markets[0]].deps, vec![dag.datasets[0]]);
        assert!(dag.jobs[dag.datasets[0]].deps.is_empty());
    }

    #[test]
    fn cell_axis_matches_expansion_order() {
        let methods = vec!["Components".to_string(), "Pure Matching".to_string()];
        let axis = cell_axis(2, &methods);
        assert_eq!(axis.len(), 6);
        assert_eq!(axis[0], (Cohort::Whole, "Components".to_string()));
        assert_eq!(axis[1], (Cohort::Whole, "Pure Matching".to_string()));
        assert_eq!(axis[2].0, Cohort::Seg(0));
        let dag = JobDag::expand(&spec("1", "0", 2));
        let from_dag: Vec<(Cohort, String)> =
            dag.cells.iter().map(|c| (c.cohort, c.method.clone())).collect();
        assert_eq!(from_dag, axis);
    }

    #[test]
    fn dist_and_objective_axes_key_the_market_stage() {
        use crate::spec::WtpDist;
        use revmax_core::prelude::Objective;
        let mut sp = spec("1", "0", 0);
        sp.apply("dists", "rating,pareto").unwrap();
        sp.apply("tails", "2").unwrap();
        sp.apply("objectives", "mean,cvar:0.9").unwrap();
        let dag = JobDag::expand(&sp);
        let s = dag.summary();
        assert_eq!(s.datasets, 1, "one dataset feeds every dist/objective market");
        assert_eq!(s.markets, 4, "2 dists x 2 objectives");
        assert_eq!(s.solves, 2 * 4);
        // Grid order: dist outer, objective inner.
        assert_eq!(dag.cells[0].recipe.dist, WtpDist::Rating);
        assert_eq!(dag.cells[0].recipe.params.objective, Objective::Mean);
        assert_eq!(dag.cells[2].recipe.params.objective, Objective::Cvar(0.9));
        assert_eq!(dag.cells[4].recipe.dist, WtpDist::Pareto { alpha: 2.0 });
        // Repeating an axis value reuses the market job.
        sp.apply("objectives", "mean,mean").unwrap();
        assert_eq!(JobDag::expand(&sp).summary().markets, 2);
    }

    #[test]
    fn cohort_display_names() {
        assert_eq!(Cohort::Whole.to_string(), "all");
        assert_eq!(Cohort::Seg(2).to_string(), "c2");
    }
}
