//! The `offline-mrbc` workload: full MRBC runs on four simulated hosts.

use std::time::{Duration, Instant};

use mrbc_core::{bc, BcConfig, BcResult};
use mrbc_graph::{CsrGraph, VertexId};
use mrbc_obs as obs;

use crate::inputs::{self, Shape};

/// Track id of the benchmark's single-threaded spans.
pub const MAIN_TID: u32 = 2000;

/// MRBC on 4 simulated hosts, default partition policy and batch size.
pub fn config() -> BcConfig {
    BcConfig {
        num_hosts: 4,
        ..BcConfig::default()
    }
}

/// Generation only: there is no daemon to start.
pub fn setup(seed: u64) -> (CsrGraph, f64) {
    let t = Instant::now();
    let g = inputs::graph(Shape::Road, seed);
    (g, t.elapsed().as_secs_f64())
}

pub struct Runs {
    /// Wall time of each full `bc`, seconds.
    pub walls: Vec<f64>,
    pub last: BcResult,
    /// Runs whose BC bits differ from the first run's.
    pub unstable: usize,
}

/// Full-source `bc` calls for `seconds` (at least two), with `between`
/// called before each.
pub fn run(g: &CsrGraph, seconds: f64, mut between: impl FnMut()) -> Runs {
    let sources: Vec<VertexId> = (0..g.num_vertices() as VertexId).collect();
    let cfg = config();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut walls = Vec::new();
    let mut first: Option<Vec<u64>> = None;
    let mut unstable = 0;
    loop {
        between();
        let span = obs::span_on("offline.bc", "perfbench", MAIN_TID);
        let t = Instant::now();
        let r = bc(g, &sources, &cfg);
        walls.push(t.elapsed().as_secs_f64());
        drop(span);
        let bits: Vec<u64> = r.bc.iter().map(|x| x.to_bits()).collect();
        match &first {
            None => first = Some(bits),
            Some(f) if *f != bits => unstable += 1,
            Some(_) => {}
        }
        if walls.len() >= 2 && Instant::now() >= deadline {
            return Runs {
                walls,
                last: r,
                unstable,
            };
        }
    }
}
