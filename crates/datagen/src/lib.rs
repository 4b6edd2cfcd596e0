//! Seeded synthetic graph generators matching the paper's nine datasets.
//!
//! The paper evaluates partitioning on nine graphs (Table 1): three SNAP
//! road networks, four SNAP/web social networks, and two proprietary Twitter
//! crawls. None of the real datasets are redistributable here, so this crate
//! generates **structural stand-ins**: for each dataset a
//! [`DatasetProfile`] records the structural features that drive partitioner
//! behaviour — |V|/|E| ratio, reciprocity, zero-in/out fractions, degree
//! skew, clustering, component structure, ID↔locality correlation — and a
//! seeded generator reproduces them at a configurable scale.
//!
//! Four generator families cover the nine datasets, and
//! [`DatasetProfile::generate`] picks one per profile:
//!
//! * `road_network` — perturbed grids (RoadNet-PA/TX/CA): symmetric,
//!   bounded degree, near-planar, huge diameter, many small components,
//!   row-major (spatial) vertex IDs.
//! * [`social::undirected_social`] — Holme–Kim preferential attachment
//!   (YouTube, Orkut): symmetric power-law graphs with tunable clustering.
//! * `directed_social` — activity/popularity model with triadic
//!   closure and tunable reciprocity (Pocek, socLiveJournal).
//! * `crawl_graph` — a forest-fire-style API crawl (follow-jul,
//!   follow-dec): crawled core plus a large periphery of users that were
//!   only *seen*, yielding the paper's large ZeroIn/ZeroOut fractions and
//!   "superstar" skew; IDs are assigned in first-touch (crawl) order.
//!
//! All generators take an explicit seed and are deterministic.

pub mod crawl;
pub mod powerlaw;
pub mod profiles;
pub mod relabel;
pub mod rmat;
pub mod road;
pub mod social;

pub use crawl::CrawlConfig;
pub use profiles::{DatasetProfile, ProfileKind};
pub use rmat::{rmat, RmatConfig};
pub use road::RoadNetworkConfig;
pub use social::{undirected_social, DirectedSocialConfig, UndirectedSocialConfig};
