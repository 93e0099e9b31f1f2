//! SourceSync: the paper's primary contribution.
//!
//! A distributed architecture that lets multiple 802.11-like senders
//! transmit the *same packet simultaneously* and have it decode at the
//! receiver with power and diversity gains (Rahul, Hassanieh, Katabi —
//! SIGCOMM 2010). Three components:
//!
//! * [`sls`] — the **Symbol-Level Synchronizer**: phase-slope arrival
//!   estimation (immune to detection-instant jitter), the probe/response
//!   delay protocol of Eq. 2, wait-time computation (exact for one
//!   receiver, min-max LP for several — §4.6), and ACK-driven delay
//!   tracking (§4.5);
//! * [`jce`] — the **Joint Channel Estimator**: per-sender channel
//!   estimates from staggered training, missing-sender detection, role
//!   channels, and per-role residual-CFO tracking via shared pilots (§5);
//! * [`combiner`] — the **Smart Combiner**: distributed Alamouti /
//!   replicated-Alamouti coding so concurrent signals cannot combine
//!   destructively (§6);
//!
//! glued together by:
//!
//! * [`wire`] — the synchronization-header format,
//! * [`timeline`] — the joint-frame layout of Figs. 6–7,
//! * [`session`] — the staged, per-role [`JointSession`] protocol driver
//!   over the sample-level medium (`LeadTx` → `CosenderJoin` →
//!   `ReceiverDecode`, with typed [`JoinFailure`] join diagnostics),
//! * [`joint`] — the protocol vocabulary the session speaks
//!   ([`JointConfig`], [`CosenderPlan`], [`JointOutcome`]).

// No unsafe anywhere in this crate: the determinism contract is easier
// to audit when all of the workspace's unsafe code sits in the fenced
// kernel tiers that `ssync_dsp::simd::tier()` dispatches: ssync_dsp's AVX2
// FFT and CFO-mixer kernels and its AVX2 and AVX-512 compiled twins, and
// ssync_phy's AVX2 and AVX-512 Viterbi kernels and AVX2 demap kernel (see
// DESIGN.md, "The SIMD layer and kernel tiers", and ssync_lint's
// `undocumented-unsafe` rule).
#![forbid(unsafe_code)]

pub mod combiner;
pub mod jce;
pub mod joint;
pub mod session;
pub mod sls;
pub mod timeline;
pub mod wire;

pub use combiner::{
    decode_joint_data_with, joint_data_waveform_into, CombineWorkspace, CombinerStats,
    DataSectionSpec, JointDataWindow,
};
pub use jce::RoleChannels;
pub use joint::{CosenderPlan, JointConfig, JointOutcome, ReceiverReport};
pub use session::{
    CosenderJoin, CosenderOutcome, CosenderTx, JoinFailure, JointSession, LeadFrame, LeadTx,
    ReceiverDecode, SessionWorkspace,
};
pub use sls::{arrival_estimate_s, probe_pair, tracking_update, DelayDatabase, ProbeOutcome};
pub use timeline::{JointTimeline, HEADER_RATE, SIFS_S};
pub use wire::{packet_id, SyncHeader, WireError};
