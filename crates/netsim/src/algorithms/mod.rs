//! Distributed building blocks: BFS trees, convergecast/broadcast,
//! leader election, and Luby's maximal independent set.
//!
//! These are the substrate the paper's CONGEST protocol (§5) and LOCAL
//! protocol (§6) assume: "the network identifies the vertex with the
//! largest identifier, and then constructs a BFS tree", "summing up the
//! tree the number of virtual nodes that want to reject", "use Luby's
//! MIS algorithm to find a maximal independent set on the graph G^r".

pub mod bfs;
pub mod coded;
pub mod convergecast;
pub mod distributed_mis;
pub mod leader;
pub mod mis;
#[doc(hidden)]
pub mod reference_check;
pub mod reliable;
pub mod routing;

pub use bfs::{build_bfs_tree, build_bfs_tree_coded, BfsTree};
pub use coded::{
    codec_stats, CodecError, CodecMessage, CodecStats, CodedProtocol, IdentityCodec, MessageCodec,
};
pub use convergecast::{
    broadcast_value, broadcast_value_observed, convergecast_sum, convergecast_sum_observed,
    TreeOpCost,
};
pub use distributed_mis::{distributed_luby_mis, DistributedMisResult};
pub use leader::{elect_leader, elect_leader_coded};
pub use mis::{luby_mis, verify_mis, MisResult};
pub use reliable::{
    reliable_broadcast_value_coded, reliable_convergecast_sums_coded, RelMsg, ReliableCost,
    RetryPolicy,
};
pub use routing::{route_to_centers, Parcel};
