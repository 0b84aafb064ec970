//! The benchmark's workloads: which mechanism, oracle, stream, tenant
//! and driver layout each one runs, and why it was chosen.

use ldp_fo::FoKind;
use ldp_ids::{MechanismConfig, MechanismKind};
use ldp_service::WalSync;
use ldp_stream::Dataset;
use ldp_util::child_seed;

/// Window budget ε of every workload.
pub const EPSILON: f64 = 1.0;
/// Window length w of every workload.
pub const WINDOW: usize = 20;

/// One named workload. Both run LBA (budget division, Alg. 2) with GRR
/// on the Taxi simulator at its paper population against a durable
/// tenant; they differ in how many sessions share it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One driver.
    LbaGrrTaxiDurable,
    /// Two drivers with different seeds sharing the one tenant over two
    /// connections.
    LbaGrrTaxi2Sess,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 2] = [Workload::LbaGrrTaxiDurable, Workload::LbaGrrTaxi2Sess];

    /// Stable name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LbaGrrTaxiDurable => "lba-grr-taxi-durable",
            Workload::LbaGrrTaxi2Sess => "lba-grr-taxi-2sess",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark.
    pub fn why(self) -> &'static str {
        match self {
            Workload::LbaGrrTaxiDurable => {
                "every user reports every round at O(1) perturbation cost, so wire round trips, dispatcher, ingest and WAL dominate"
            }
            Workload::LbaGrrTaxi2Sess => {
                "two sessions on one durable tenant: dispatcher funnel, cross-session group commit and pool contention"
            }
        }
    }

    /// The mechanism run.
    pub fn mechanism(self) -> MechanismKind {
        MechanismKind::Lba
    }

    /// Population at full scale.
    pub fn population(self) -> u64 {
        Dataset::taxi().population()
    }

    /// The true stream at population `population`.
    pub fn dataset(self, population: u64) -> Dataset {
        Dataset::Taxi { population }
    }

    /// Fsync discipline of the tenant's WAL.
    pub fn wal_sync(self) -> WalSync {
        WalSync::Batch
    }

    /// Concurrent drivers (threads and connections) on the one tenant.
    pub fn sessions(self) -> usize {
        match self {
            Workload::LbaGrrTaxiDurable => 1,
            Workload::LbaGrrTaxi2Sess => 2,
        }
    }

    /// Timestamps per episode: at least 200, so the 95th percentile has
    /// ten samples beyond it, and one episode (~55 ms per timestamp, bound
    /// by the loopback round trips) fits the run length.
    pub fn episode_steps(self) -> usize {
        400
    }

    /// The mechanism configuration at population `population`.
    pub fn config(self, population: u64) -> MechanismConfig {
        let d = self.dataset(population).domain_size();
        MechanismConfig::new(EPSILON, WINDOW, d, population).with_fo(FoKind::Grr)
    }
}

/// Seeds of one driver: `(stream seed, collector seed)`, both derived
/// from the workload seed and the driver's index.
pub fn driver_seeds(seed: u64, driver: usize) -> (u64, u64) {
    let s = child_seed(seed, driver as u64);
    (child_seed(s, 0), child_seed(s, 1))
}
