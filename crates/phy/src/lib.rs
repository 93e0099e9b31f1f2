//! A sample-level 802.11-style OFDM modem.
//!
//! This crate is the software-defined-radio substrate of the SourceSync
//! reproduction: everything the paper's WiGLAN FPGA platform provided in
//! hardware is implemented here as a bit/sample-accurate signal chain —
//!
//! * [`params`] — numerology presets ([`params::OfdmParams::dot11a`] and the
//!   paper's [`params::OfdmParams::wiglan`]) and the 802.11a rate set,
//! * [`scramble`], [`convcode`], [`viterbi`], [`interleave`],
//!   [`modulation`] — the coded-modulation pipeline,
//! * [`ofdm`] — symbol assembly with per-frame cyclic-prefix control (the
//!   hook SourceSync's §4.6 CP extension uses),
//! * [`preamble`] — short/long training plus the co-sender training symbols
//!   of a joint frame,
//! * [`detect`] — energy-triggered packet detection with realistic
//!   SNR-dependent detection delay, CFO estimation, LTS fine timing,
//! * [`chanest`] — LS channel estimation, noise estimation, and the channel
//!   phase-slope → detection-delay machinery of paper §4.2,
//! * [`tx`] / [`rx`] — full frame chains with pilot phase tracking and
//!   CRC-checked payloads,
//! * [`ber`] — Monte-Carlo PER calibration through the real modem, backing
//!   the fast path of the network simulator,
//! * [`workspace`] — reusable TX/RX scratch buffers so the per-symbol hot
//!   loops run without heap allocation (each operation has one entry point;
//!   an allocating twin survives only where production calls it, e.g.
//!   [`Receiver::receive`] and [`Transmitter::frame_waveform`]).

pub mod ber;
pub mod chanest;
pub mod convcode;
pub mod crc;
pub mod detect;
pub mod frame;
pub mod interleave;
pub mod modulation;
pub mod ofdm;
pub mod params;
pub mod preamble;
pub mod rx;
pub mod scramble;
pub mod tx;
pub mod viterbi;
pub mod workspace;

pub use chanest::ChannelEstimate;
pub use detect::{Detection, Detector};
pub use frame::SignalField;
pub use params::{Modulation, OfdmParams, Params, RateId};
pub use rx::{Receiver, RxDiagnostics, RxError, RxResult};
pub use tx::Transmitter;
pub use workspace::{DetectScratch, RxWorkspace, TxWorkspace};
