//! Traffic generators: TCP Reno (FTP and HTTP-session flavours), on–off
//! UDP — the three traffic types of the paper's ns experiments (§VI-A) —
//! plus a Poisson source ([`cbr`]), which gives the test suite an
//! analytically checkable M/D/1 queue.

pub mod cbr;
pub mod onoff;
pub mod tcp;

pub use cbr::PoissonUdp;
pub use onoff::{OnOffConfig, OnOffUdp};
pub use tcp::{FlowModel, TcpConfig, TcpSender, TcpSink, TcpStats};
