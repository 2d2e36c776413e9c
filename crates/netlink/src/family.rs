//! The `mptcp_pm` generic-netlink family.
//!
//! This is the wire vocabulary of the SMAPP architecture: every event the
//! kernel path manager exposes (§3 of the paper: `created`, `estab`,
//! `closed`, `sub_estab`, `sub_closed`, `add_addr`, `rem_addr`, `timeout`,
//! `new_local_addr`, `del_local_addr`) and every command userspace can send
//! back (subscribe, create/remove subflow by arbitrary 4-tuple, change
//! backup priority, query TCP_INFO-equivalent state).
//!
//! Events and commands are encoded as real generic-netlink frames —
//! [`crate::wire`] — so the user/kernel boundary in the simulation carries
//! actual bytes, exactly like the paper's 1100-line kernel module +
//! 1900-line library pair.

use bytes::{BufMut, Bytes, BytesMut};
use smapp_mptcp::{ConnState, ConnToken, FourTuple, PmAction, PmEvent, SubflowError, SubflowId};
use smapp_sim::Addr;
use smapp_tcp::{TcpInfo, TcpStateInfo};

use crate::wire::{
    attr_map, find_attr, find_attr_opt, Frame, FrameBuilder, GenlMsgHdr, NlError, NLM_F_REQUEST,
};

/// Generic-netlink family id for `mptcp_pm` (fixed in the simulation; real
/// kernels allocate it dynamically at family registration).
pub const FAMILY_ID: u16 = 0x21;
/// Family version.
pub const FAMILY_VERSION: u8 = 1;
/// Port id used for the kernel side.
pub const KERNEL_PID: u32 = 0;
/// Port id used for the subflow-controller process.
pub const CONTROLLER_PID: u32 = 1001;

/// Family command numbers.
pub mod cmd {
    /// Event: connection created.
    pub const EV_CREATED: u8 = 1;
    /// Event: connection established.
    pub const EV_ESTAB: u8 = 2;
    /// Event: connection closed.
    pub const EV_CLOSED: u8 = 3;
    /// Event: subflow established.
    pub const EV_SUB_ESTAB: u8 = 4;
    /// Event: subflow closed.
    pub const EV_SUB_CLOSED: u8 = 5;
    /// Event: remote ADD_ADDR received.
    pub const EV_ADD_ADDR: u8 = 6;
    /// Event: remote REMOVE_ADDR received.
    pub const EV_REM_ADDR: u8 = 7;
    /// Event: retransmission timer expired.
    pub const EV_TIMEOUT: u8 = 8;
    /// Event: local address became available.
    pub const EV_NEW_LOCAL_ADDR: u8 = 9;
    /// Event: local address went away.
    pub const EV_DEL_LOCAL_ADDR: u8 = 10;
    /// Command: set the event subscription mask.
    pub const CMD_SUBSCRIBE: u8 = 32;
    /// Command: create a subflow from an arbitrary 4-tuple.
    pub const CMD_SUB_CREATE: u8 = 33;
    /// Command: close a subflow.
    pub const CMD_SUB_CLOSE: u8 = 34;
    /// Command: change a subflow's backup priority.
    pub const CMD_SET_BACKUP: u8 = 35;
    /// Command: query connection/subflow state.
    pub const CMD_GET_INFO: u8 = 36;
    /// Command: announce a local address via ADD_ADDR.
    pub const CMD_ANNOUNCE_ADDR: u8 = 37;
    /// Command: withdraw a local address via REMOVE_ADDR.
    pub const CMD_WITHDRAW_ADDR: u8 = 38;
    /// Command: sockdiag-style dump of live connection state (one
    /// connection by token, or every connection of the host).
    pub const CMD_DIAG: u8 = 39;
    /// Reply to `CMD_GET_INFO`.
    pub const REPLY_INFO: u8 = 64;
    /// Generic acknowledgment / error reply.
    pub const REPLY_ACK: u8 = 65;
    /// Reply to `CMD_DIAG`.
    pub const REPLY_DIAG: u8 = 66;
}

/// Attribute type numbers.
pub mod attr {
    /// Connection token (u32).
    pub const TOKEN: u16 = 1;
    /// Subflow id (u8).
    pub const SUBFLOW_ID: u16 = 2;
    /// Source address (u32).
    pub const SADDR: u16 = 3;
    /// Source port (u16).
    pub const SPORT: u16 = 4;
    /// Destination address (u32).
    pub const DADDR: u16 = 5;
    /// Destination port (u16).
    pub const DPORT: u16 = 6;
    /// Backup flag (u8).
    pub const BACKUP: u16 = 7;
    /// errno-style error code (u16).
    pub const ERROR: u16 = 8;
    /// Retransmission timeout in microseconds (u64).
    pub const RTO_US: u16 = 9;
    /// Consecutive backoffs (u32).
    pub const BACKOFFS: u16 = 10;
    /// A bare address (u32).
    pub const ADDR: u16 = 11;
    /// MPTCP address id (u8).
    pub const ADDR_ID: u16 = 12;
    /// A port (u16).
    pub const PORT: u16 = 13;
    /// Event subscription mask (u32).
    pub const MASK: u16 = 14;
    /// Client-side flag (u8).
    pub const IS_CLIENT: u16 = 15;
    /// Locally-initiated flag (u8).
    pub const INITIATED: u16 = 16;
    /// Reset-vs-graceful flag (u8).
    pub const RESET: u16 = 17;
    /// `TcpInfo` binary blob (see [`crate::family::encode_tcp_info`]).
    pub const TCP_INFO: u16 = 18;
    /// Nested per-subflow container.
    pub const SUBFLOW_NEST: u16 = 19;
    /// Connection-level first unacknowledged data offset (u64) — the
    /// paper's `snd_una` signal polled by the smart-streaming controller.
    pub const DATA_SND_UNA: u16 = 20;
    /// Connection-level next data offset to send (u64).
    pub const DATA_SND_NXT: u16 = 21;
    /// Nested per-connection container in a diag reply; holds `TOKEN`,
    /// `CONN_STATE`, `FALLBACK`, data-level offsets, tap counters and one
    /// `SUBFLOW_NEST` per live subflow.
    pub const CONN_NEST: u16 = 22;
    /// Coarse connection state (u8; see
    /// [`crate::family::conn_state_to_u8`]).
    pub const CONN_STATE: u16 = 23;
    /// Plain-TCP fallback inferred flag (u8).
    pub const FALLBACK: u16 = 24;
    /// Bytes pushed through the send-side stream tap (u64).
    pub const TAP_SENT_BYTES: u16 = 25;
    /// Running FNV digest of the sent stream (u64).
    pub const TAP_SENT_DIGEST: u16 = 26;
    /// Bytes pushed through the receive-side stream tap (u64).
    pub const TAP_RECVD_BYTES: u16 = 27;
    /// Running FNV digest of the received stream (u64).
    pub const TAP_RECVD_DIGEST: u16 = 28;
    /// Connection-level reinjections performed (u64).
    pub const REINJECTIONS: u16 = 29;
}

/// Commands userspace sends to the kernel path manager.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PmNlCommand {
    /// Select which events this controller wants (bitmask of
    /// [`PmEvent::mask_bit`] values).
    Subscribe {
        /// The mask.
        mask: u32,
    },
    /// Create a subflow on `token` from an arbitrary 4-tuple (source port
    /// 0 = kernel picks an ephemeral port).
    SubflowCreate {
        /// Target connection.
        token: ConnToken,
        /// Local address.
        src: Addr,
        /// Local port (0 = ephemeral).
        src_port: u16,
        /// Remote address.
        dst: Addr,
        /// Remote port.
        dst_port: u16,
        /// Backup priority.
        backup: bool,
    },
    /// Close a subflow.
    SubflowClose {
        /// Target connection.
        token: ConnToken,
        /// Subflow id.
        id: SubflowId,
        /// RST instead of FIN.
        reset: bool,
    },
    /// Flip a subflow's backup priority (MP_PRIO).
    SetBackup {
        /// Target connection.
        token: ConnToken,
        /// Subflow id.
        id: SubflowId,
        /// New priority.
        backup: bool,
    },
    /// Query state; the kernel replies with [`PmNlMessage::InfoReply`].
    GetInfo {
        /// Target connection.
        token: ConnToken,
        /// Restrict to one subflow (None = all).
        id: Option<SubflowId>,
    },
    /// Announce a local address to the peer.
    AnnounceAddr {
        /// Target connection.
        token: ConnToken,
        /// Our address id.
        addr_id: u8,
        /// The address.
        addr: Addr,
    },
    /// Withdraw a previously announced address.
    WithdrawAddr {
        /// Target connection.
        token: ConnToken,
        /// The address id.
        addr_id: u8,
    },
}

impl PmNlCommand {
    /// Convert to the in-kernel action, when one exists (`Subscribe` and
    /// `GetInfo` are handled at the netlink layer itself).
    pub fn to_action(&self) -> Option<PmAction> {
        Some(match *self {
            PmNlCommand::SubflowCreate {
                token,
                src,
                src_port,
                dst,
                dst_port,
                backup,
            } => PmAction::OpenSubflow {
                token,
                src,
                src_port,
                dst,
                dst_port,
                backup,
            },
            PmNlCommand::SubflowClose { token, id, reset } => {
                PmAction::CloseSubflow { token, id, reset }
            }
            PmNlCommand::SetBackup { token, id, backup } => {
                PmAction::SetBackup { token, id, backup }
            }
            PmNlCommand::AnnounceAddr {
                token,
                addr_id,
                addr,
            } => PmAction::AnnounceAddr {
                token,
                addr_id,
                addr,
            },
            PmNlCommand::WithdrawAddr { token, addr_id } => {
                PmAction::WithdrawAddr { token, addr_id }
            }
            PmNlCommand::Subscribe { .. } | PmNlCommand::GetInfo { .. } => return None,
        })
    }
}

/// Any message of the family, decoded.
#[derive(Clone, Debug, PartialEq)]
pub enum PmNlMessage {
    /// Kernel → user event.
    Event(PmEvent),
    /// User → kernel command.
    Command {
        /// Sequence number (echoed in the reply).
        seq: u32,
        /// The command.
        cmd: PmNlCommand,
    },
    /// Kernel → user reply to `GetInfo`.
    InfoReply {
        /// Echoed sequence number.
        seq: u32,
        /// Connection token.
        token: ConnToken,
        /// Connection-level `(snd_una, snd_nxt)` in data-stream offsets.
        conn: Option<(u64, u64)>,
        /// Per-subflow snapshots.
        subflows: Vec<(SubflowId, TcpInfo)>,
    },
    /// Kernel → user acknowledgment (errno 0 = success).
    Ack {
        /// Echoed sequence number.
        seq: u32,
        /// errno-style code, 0 on success.
        errno: u16,
    },
    /// User → kernel sockdiag-style dump request.
    DiagRequest {
        /// Sequence number (echoed in the reply).
        seq: u32,
        /// Restrict the dump to one connection (None = every connection
        /// on the host).
        token: Option<ConnToken>,
    },
    /// Kernel → user sockdiag-style dump reply: one [`DiagConn`] per
    /// matched connection, in creation order.
    DiagReply {
        /// Echoed sequence number.
        seq: u32,
        /// Per-connection snapshots.
        conns: Vec<DiagConn>,
    },
}

/// One connection's worth of live state in a [`PmNlMessage::DiagReply`] —
/// the simulation's `ss`/sockdiag equivalent. Everything here is read
/// straight off the running stack without perturbing it.
#[derive(Clone, Debug, PartialEq)]
pub struct DiagConn {
    /// Connection token.
    pub token: ConnToken,
    /// Coarse connection state.
    pub state: ConnState,
    /// True once the stack inferred a plain-TCP fallback.
    pub fallback_inferred: bool,
    /// Data-level first unacknowledged offset (`snd_una`).
    pub meta_una: u64,
    /// Data-level next offset to send (`snd_nxt`).
    pub meta_snd_nxt: u64,
    /// Send-side stream tap `(bytes, digest)`: the tap's `count` and its
    /// word-wide stream digest, [`smapp_tcp::StreamTap::fnv`].
    pub tap_sent: (u64, u64),
    /// Receive-side stream tap `(bytes, digest)`, as for `tap_sent`.
    pub tap_recvd: (u64, u64),
    /// Meta-level reinjections performed so far.
    pub reinjections: u64,
    /// Per-subflow TCP_INFO snapshots (RTT, cwnd, state, …), live
    /// subflows only, in subflow-id order.
    pub subflows: Vec<(SubflowId, TcpInfo)>,
}

/// Encode a [`ConnState`] as the u8 carried in [`attr::CONN_STATE`].
pub fn conn_state_to_u8(s: ConnState) -> u8 {
    match s {
        ConnState::Establishing => 1,
        ConnState::Established => 2,
        ConnState::Closed => 3,
    }
}

/// Decode the u8 written by [`conn_state_to_u8`].
pub fn conn_state_from_u8(v: u8) -> ConnState {
    match v {
        1 => ConnState::Establishing,
        2 => ConnState::Established,
        _ => ConnState::Closed,
    }
}

// ---------------------------------------------------------------------
// TcpInfo blob codec (Linux ships `struct tcp_info` as a binary blob).
// ---------------------------------------------------------------------

/// Version byte of the blob layout.
const TCP_INFO_BLOB_VERSION: u8 = 1;
/// Size of the encoded blob.
pub const TCP_INFO_BLOB_LEN: usize = 4 + 8 * 10 + 4;

fn state_to_u8(s: TcpStateInfo) -> u8 {
    match s {
        TcpStateInfo::SynSent => 1,
        TcpStateInfo::SynReceived => 2,
        TcpStateInfo::Established => 3,
        TcpStateInfo::Closing => 4,
        TcpStateInfo::Closed => 5,
    }
}

fn state_from_u8(v: u8) -> TcpStateInfo {
    match v {
        1 => TcpStateInfo::SynSent,
        2 => TcpStateInfo::SynReceived,
        3 => TcpStateInfo::Established,
        4 => TcpStateInfo::Closing,
        _ => TcpStateInfo::Closed,
    }
}

/// Encode a [`TcpInfo`] as the fixed binary blob carried in
/// [`attr::TCP_INFO`].
pub fn encode_tcp_info(i: &TcpInfo) -> Bytes {
    let mut b = BytesMut::with_capacity(TCP_INFO_BLOB_LEN);
    b.put_u8(TCP_INFO_BLOB_VERSION);
    b.put_u8(state_to_u8(i.state));
    b.put_u8(i.backup as u8);
    b.put_u8(0);
    b.put_u64_le(i.srtt_us);
    b.put_u64_le(i.rttvar_us);
    b.put_u64_le(i.rto_us);
    b.put_u64_le(i.cwnd);
    b.put_u64_le(i.ssthresh);
    b.put_u64_le(i.pacing_rate);
    b.put_u64_le(i.snd_una);
    b.put_u64_le(i.snd_nxt);
    b.put_u64_le(i.in_flight);
    b.put_u64_le(i.bytes_acked);
    b.put_u32_le(i.backoffs);
    // retrans rides in the trailing u32? No: widen the blob instead.
    b.put_u64_le(i.retrans);
    b.freeze()
}

/// Decode the blob produced by [`encode_tcp_info`].
pub fn decode_tcp_info(b: &[u8]) -> Result<TcpInfo, NlError> {
    if b.len() < TCP_INFO_BLOB_LEN || b[0] != TCP_INFO_BLOB_VERSION {
        return Err(NlError::BadAttrLen {
            ty: attr::TCP_INFO,
            len: b.len(),
        });
    }
    let u64_at = |off: usize| u64::from_le_bytes(b[off..off + 8].try_into().unwrap());
    Ok(TcpInfo {
        state: state_from_u8(b[1]),
        backup: b[2] != 0,
        srtt_us: u64_at(4),
        rttvar_us: u64_at(12),
        rto_us: u64_at(20),
        cwnd: u64_at(28),
        ssthresh: u64_at(36),
        pacing_rate: u64_at(44),
        snd_una: u64_at(52),
        snd_nxt: u64_at(60),
        in_flight: u64_at(68),
        bytes_acked: u64_at(76),
        backoffs: u32::from_le_bytes(b[84..88].try_into().unwrap()),
        retrans: u64_at(88),
    })
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn fb(cmd_byte: u8, flags: u16, seq: u32, pid: u32) -> FrameBuilder {
    FrameBuilder::new(
        FAMILY_ID,
        flags,
        seq,
        pid,
        GenlMsgHdr {
            cmd: cmd_byte,
            version: FAMILY_VERSION,
        },
    )
}

fn put_tuple(b: &mut FrameBuilder, t: &FourTuple) {
    b.attr_u32(attr::SADDR, t.src.0)
        .attr_u16(attr::SPORT, t.src_port)
        .attr_u32(attr::DADDR, t.dst.0)
        .attr_u16(attr::DPORT, t.dst_port);
}

/// Encode a kernel event as a netlink frame.
pub fn encode_event(ev: &PmEvent) -> Bytes {
    match ev {
        PmEvent::ConnCreated {
            token,
            tuple,
            initial_subflow,
            is_client,
        } => {
            let mut b = fb(cmd::EV_CREATED, 0, 0, KERNEL_PID);
            b.attr_u32(attr::TOKEN, *token)
                .attr_u8(attr::SUBFLOW_ID, *initial_subflow)
                .attr_u8(attr::IS_CLIENT, *is_client as u8);
            put_tuple(&mut b, tuple);
            b.finish()
        }
        PmEvent::ConnEstablished {
            token,
            tuple,
            is_client,
        } => {
            let mut b = fb(cmd::EV_ESTAB, 0, 0, KERNEL_PID);
            b.attr_u32(attr::TOKEN, *token)
                .attr_u8(attr::IS_CLIENT, *is_client as u8);
            put_tuple(&mut b, tuple);
            b.finish()
        }
        PmEvent::ConnClosed { token } => {
            let mut b = fb(cmd::EV_CLOSED, 0, 0, KERNEL_PID);
            b.attr_u32(attr::TOKEN, *token);
            b.finish()
        }
        PmEvent::SubflowEstablished {
            token,
            id,
            tuple,
            backup,
            initiated_here,
        } => {
            let mut b = fb(cmd::EV_SUB_ESTAB, 0, 0, KERNEL_PID);
            b.attr_u32(attr::TOKEN, *token)
                .attr_u8(attr::SUBFLOW_ID, *id)
                .attr_u8(attr::BACKUP, *backup as u8)
                .attr_u8(attr::INITIATED, *initiated_here as u8);
            put_tuple(&mut b, tuple);
            b.finish()
        }
        PmEvent::SubflowClosed {
            token,
            id,
            tuple,
            error,
        } => {
            let mut b = fb(cmd::EV_SUB_CLOSED, 0, 0, KERNEL_PID);
            b.attr_u32(attr::TOKEN, *token)
                .attr_u8(attr::SUBFLOW_ID, *id)
                .attr_u16(attr::ERROR, error.errno());
            put_tuple(&mut b, tuple);
            b.finish()
        }
        PmEvent::AddAddrReceived {
            token,
            addr_id,
            addr,
            port,
        } => {
            let mut b = fb(cmd::EV_ADD_ADDR, 0, 0, KERNEL_PID);
            b.attr_u32(attr::TOKEN, *token)
                .attr_u8(attr::ADDR_ID, *addr_id)
                .attr_u32(attr::ADDR, addr.0);
            if let Some(p) = port {
                b.attr_u16(attr::PORT, *p);
            }
            b.finish()
        }
        PmEvent::RemAddrReceived { token, addr_id } => {
            let mut b = fb(cmd::EV_REM_ADDR, 0, 0, KERNEL_PID);
            b.attr_u32(attr::TOKEN, *token)
                .attr_u8(attr::ADDR_ID, *addr_id);
            b.finish()
        }
        PmEvent::RtoExpired {
            token,
            id,
            current_rto,
            backoffs,
        } => {
            let mut b = fb(cmd::EV_TIMEOUT, 0, 0, KERNEL_PID);
            b.attr_u32(attr::TOKEN, *token)
                .attr_u8(attr::SUBFLOW_ID, *id)
                .attr_u64(attr::RTO_US, current_rto.as_micros() as u64)
                .attr_u32(attr::BACKOFFS, *backoffs);
            b.finish()
        }
        PmEvent::LocalAddrUp { addr } => {
            let mut b = fb(cmd::EV_NEW_LOCAL_ADDR, 0, 0, KERNEL_PID);
            b.attr_u32(attr::ADDR, addr.0);
            b.finish()
        }
        PmEvent::LocalAddrDown { addr } => {
            let mut b = fb(cmd::EV_DEL_LOCAL_ADDR, 0, 0, KERNEL_PID);
            b.attr_u32(attr::ADDR, addr.0);
            b.finish()
        }
    }
}

/// Encode a userspace command.
pub fn encode_command(seq: u32, c: &PmNlCommand) -> Bytes {
    match c {
        PmNlCommand::Subscribe { mask } => {
            let mut b = fb(cmd::CMD_SUBSCRIBE, NLM_F_REQUEST, seq, CONTROLLER_PID);
            b.attr_u32(attr::MASK, *mask);
            b.finish()
        }
        PmNlCommand::SubflowCreate {
            token,
            src,
            src_port,
            dst,
            dst_port,
            backup,
        } => {
            let mut b = fb(cmd::CMD_SUB_CREATE, NLM_F_REQUEST, seq, CONTROLLER_PID);
            b.attr_u32(attr::TOKEN, *token)
                .attr_u32(attr::SADDR, src.0)
                .attr_u16(attr::SPORT, *src_port)
                .attr_u32(attr::DADDR, dst.0)
                .attr_u16(attr::DPORT, *dst_port)
                .attr_u8(attr::BACKUP, *backup as u8);
            b.finish()
        }
        PmNlCommand::SubflowClose { token, id, reset } => {
            let mut b = fb(cmd::CMD_SUB_CLOSE, NLM_F_REQUEST, seq, CONTROLLER_PID);
            b.attr_u32(attr::TOKEN, *token)
                .attr_u8(attr::SUBFLOW_ID, *id)
                .attr_u8(attr::RESET, *reset as u8);
            b.finish()
        }
        PmNlCommand::SetBackup { token, id, backup } => {
            let mut b = fb(cmd::CMD_SET_BACKUP, NLM_F_REQUEST, seq, CONTROLLER_PID);
            b.attr_u32(attr::TOKEN, *token)
                .attr_u8(attr::SUBFLOW_ID, *id)
                .attr_u8(attr::BACKUP, *backup as u8);
            b.finish()
        }
        PmNlCommand::GetInfo { token, id } => {
            let mut b = fb(cmd::CMD_GET_INFO, NLM_F_REQUEST, seq, CONTROLLER_PID);
            b.attr_u32(attr::TOKEN, *token);
            if let Some(id) = id {
                b.attr_u8(attr::SUBFLOW_ID, *id);
            }
            b.finish()
        }
        PmNlCommand::AnnounceAddr {
            token,
            addr_id,
            addr,
        } => {
            let mut b = fb(cmd::CMD_ANNOUNCE_ADDR, NLM_F_REQUEST, seq, CONTROLLER_PID);
            b.attr_u32(attr::TOKEN, *token)
                .attr_u8(attr::ADDR_ID, *addr_id)
                .attr_u32(attr::ADDR, addr.0);
            b.finish()
        }
        PmNlCommand::WithdrawAddr { token, addr_id } => {
            let mut b = fb(cmd::CMD_WITHDRAW_ADDR, NLM_F_REQUEST, seq, CONTROLLER_PID);
            b.attr_u32(attr::TOKEN, *token)
                .attr_u8(attr::ADDR_ID, *addr_id);
            b.finish()
        }
    }
}

/// Encode the reply to `GetInfo`.
pub fn encode_info_reply(
    seq: u32,
    token: ConnToken,
    conn: Option<(u64, u64)>,
    subflows: &[(SubflowId, TcpInfo)],
) -> Bytes {
    let mut b = fb(cmd::REPLY_INFO, 0, seq, KERNEL_PID);
    b.attr_u32(attr::TOKEN, token);
    if let Some((una, nxt)) = conn {
        b.attr_u64(attr::DATA_SND_UNA, una);
        b.attr_u64(attr::DATA_SND_NXT, nxt);
    }
    for (id, info) in subflows {
        let id = *id;
        let blob = encode_tcp_info(info);
        b.attr_nested(attr::SUBFLOW_NEST, |inner| {
            inner.attr_u8(attr::SUBFLOW_ID, id);
            inner.attr_bytes(attr::TCP_INFO, &blob);
        });
    }
    b.finish()
}

/// Encode a command acknowledgment.
pub fn encode_ack(seq: u32, errno: u16) -> Bytes {
    let mut b = fb(cmd::REPLY_ACK, 0, seq, KERNEL_PID);
    b.attr_u16(attr::ERROR, errno);
    b.finish()
}

/// Encode a sockdiag dump request (`token` = None dumps every
/// connection).
pub fn encode_diag_request(seq: u32, token: Option<ConnToken>) -> Bytes {
    let mut b = fb(cmd::CMD_DIAG, NLM_F_REQUEST, seq, CONTROLLER_PID);
    if let Some(t) = token {
        b.attr_u32(attr::TOKEN, t);
    }
    b.finish()
}

/// Encode the reply to `CMD_DIAG`: one `CONN_NEST` per connection, each
/// nesting its own `SUBFLOW_NEST` entries.
pub fn encode_diag_reply(seq: u32, conns: &[DiagConn]) -> Bytes {
    let mut b = fb(cmd::REPLY_DIAG, 0, seq, KERNEL_PID);
    for c in conns {
        b.attr_nested(attr::CONN_NEST, |inner| {
            inner.attr_u32(attr::TOKEN, c.token);
            inner.attr_u8(attr::CONN_STATE, conn_state_to_u8(c.state));
            inner.attr_u8(attr::FALLBACK, c.fallback_inferred as u8);
            inner.attr_u64(attr::DATA_SND_UNA, c.meta_una);
            inner.attr_u64(attr::DATA_SND_NXT, c.meta_snd_nxt);
            inner.attr_u64(attr::TAP_SENT_BYTES, c.tap_sent.0);
            inner.attr_u64(attr::TAP_SENT_DIGEST, c.tap_sent.1);
            inner.attr_u64(attr::TAP_RECVD_BYTES, c.tap_recvd.0);
            inner.attr_u64(attr::TAP_RECVD_DIGEST, c.tap_recvd.1);
            inner.attr_u64(attr::REINJECTIONS, c.reinjections);
            for (id, info) in &c.subflows {
                let id = *id;
                let blob = encode_tcp_info(info);
                inner.attr_nested(attr::SUBFLOW_NEST, |sf| {
                    sf.attr_u8(attr::SUBFLOW_ID, id);
                    sf.attr_bytes(attr::TCP_INFO, &blob);
                });
            }
        });
    }
    b.finish()
}

fn decode_diag_conn(nest: &crate::wire::Attr<'_>) -> Result<DiagConn, NlError> {
    let attrs = attr_map(nest.nested_attrs())?;
    let u64_of = |ty: u16| -> Result<u64, NlError> { find_attr(&attrs, ty)?.as_u64() };
    let mut subflows = Vec::new();
    for a in &attrs {
        if a.ty == attr::SUBFLOW_NEST {
            let inner = attr_map(a.nested_attrs())?;
            let id = find_attr(&inner, attr::SUBFLOW_ID)?.as_u8()?;
            let info = decode_tcp_info(find_attr(&inner, attr::TCP_INFO)?.payload)?;
            subflows.push((id, info));
        }
    }
    Ok(DiagConn {
        token: find_attr(&attrs, attr::TOKEN)?.as_u32()?,
        state: conn_state_from_u8(find_attr(&attrs, attr::CONN_STATE)?.as_u8()?),
        fallback_inferred: find_attr(&attrs, attr::FALLBACK)?.as_u8()? != 0,
        meta_una: u64_of(attr::DATA_SND_UNA)?,
        meta_snd_nxt: u64_of(attr::DATA_SND_NXT)?,
        tap_sent: (
            u64_of(attr::TAP_SENT_BYTES)?,
            u64_of(attr::TAP_SENT_DIGEST)?,
        ),
        tap_recvd: (
            u64_of(attr::TAP_RECVD_BYTES)?,
            u64_of(attr::TAP_RECVD_DIGEST)?,
        ),
        reinjections: u64_of(attr::REINJECTIONS)?,
        subflows,
    })
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// Decode any frame of the family.
pub fn decode(bytes: &[u8]) -> Result<PmNlMessage, NlError> {
    let f = Frame::parse(bytes)?;
    let attrs = attr_map(f.attrs())?;
    let token = || find_attr(&attrs, attr::TOKEN)?.as_u32();
    let tuple = || -> Result<FourTuple, NlError> {
        Ok(FourTuple {
            src: Addr(find_attr(&attrs, attr::SADDR)?.as_u32()?),
            src_port: find_attr(&attrs, attr::SPORT)?.as_u16()?,
            dst: Addr(find_attr(&attrs, attr::DADDR)?.as_u32()?),
            dst_port: find_attr(&attrs, attr::DPORT)?.as_u16()?,
        })
    };
    let sub_id = || find_attr(&attrs, attr::SUBFLOW_ID)?.as_u8();
    let seq = f.hdr.seq;

    let msg = match f.genl.cmd {
        cmd::EV_CREATED => PmNlMessage::Event(PmEvent::ConnCreated {
            token: token()?,
            tuple: tuple()?,
            initial_subflow: sub_id()?,
            is_client: find_attr(&attrs, attr::IS_CLIENT)?.as_u8()? != 0,
        }),
        cmd::EV_ESTAB => PmNlMessage::Event(PmEvent::ConnEstablished {
            token: token()?,
            tuple: tuple()?,
            is_client: find_attr(&attrs, attr::IS_CLIENT)?.as_u8()? != 0,
        }),
        cmd::EV_CLOSED => PmNlMessage::Event(PmEvent::ConnClosed { token: token()? }),
        cmd::EV_SUB_ESTAB => PmNlMessage::Event(PmEvent::SubflowEstablished {
            token: token()?,
            id: sub_id()?,
            tuple: tuple()?,
            backup: find_attr(&attrs, attr::BACKUP)?.as_u8()? != 0,
            initiated_here: find_attr(&attrs, attr::INITIATED)?.as_u8()? != 0,
        }),
        cmd::EV_SUB_CLOSED => PmNlMessage::Event(PmEvent::SubflowClosed {
            token: token()?,
            id: sub_id()?,
            tuple: tuple()?,
            error: SubflowError::from_errno(find_attr(&attrs, attr::ERROR)?.as_u16()?),
        }),
        cmd::EV_ADD_ADDR => PmNlMessage::Event(PmEvent::AddAddrReceived {
            token: token()?,
            addr_id: find_attr(&attrs, attr::ADDR_ID)?.as_u8()?,
            addr: Addr(find_attr(&attrs, attr::ADDR)?.as_u32()?),
            port: match find_attr_opt(&attrs, attr::PORT) {
                Some(a) => Some(a.as_u16()?),
                None => None,
            },
        }),
        cmd::EV_REM_ADDR => PmNlMessage::Event(PmEvent::RemAddrReceived {
            token: token()?,
            addr_id: find_attr(&attrs, attr::ADDR_ID)?.as_u8()?,
        }),
        cmd::EV_TIMEOUT => PmNlMessage::Event(PmEvent::RtoExpired {
            token: token()?,
            id: sub_id()?,
            current_rto: std::time::Duration::from_micros(
                find_attr(&attrs, attr::RTO_US)?.as_u64()?,
            ),
            backoffs: find_attr(&attrs, attr::BACKOFFS)?.as_u32()?,
        }),
        cmd::EV_NEW_LOCAL_ADDR => PmNlMessage::Event(PmEvent::LocalAddrUp {
            addr: Addr(find_attr(&attrs, attr::ADDR)?.as_u32()?),
        }),
        cmd::EV_DEL_LOCAL_ADDR => PmNlMessage::Event(PmEvent::LocalAddrDown {
            addr: Addr(find_attr(&attrs, attr::ADDR)?.as_u32()?),
        }),
        cmd::CMD_SUBSCRIBE => PmNlMessage::Command {
            seq,
            cmd: PmNlCommand::Subscribe {
                mask: find_attr(&attrs, attr::MASK)?.as_u32()?,
            },
        },
        cmd::CMD_SUB_CREATE => PmNlMessage::Command {
            seq,
            cmd: PmNlCommand::SubflowCreate {
                token: token()?,
                src: Addr(find_attr(&attrs, attr::SADDR)?.as_u32()?),
                src_port: find_attr(&attrs, attr::SPORT)?.as_u16()?,
                dst: Addr(find_attr(&attrs, attr::DADDR)?.as_u32()?),
                dst_port: find_attr(&attrs, attr::DPORT)?.as_u16()?,
                backup: find_attr(&attrs, attr::BACKUP)?.as_u8()? != 0,
            },
        },
        cmd::CMD_SUB_CLOSE => PmNlMessage::Command {
            seq,
            cmd: PmNlCommand::SubflowClose {
                token: token()?,
                id: sub_id()?,
                reset: find_attr(&attrs, attr::RESET)?.as_u8()? != 0,
            },
        },
        cmd::CMD_SET_BACKUP => PmNlMessage::Command {
            seq,
            cmd: PmNlCommand::SetBackup {
                token: token()?,
                id: sub_id()?,
                backup: find_attr(&attrs, attr::BACKUP)?.as_u8()? != 0,
            },
        },
        cmd::CMD_GET_INFO => PmNlMessage::Command {
            seq,
            cmd: PmNlCommand::GetInfo {
                token: token()?,
                id: match find_attr_opt(&attrs, attr::SUBFLOW_ID) {
                    Some(a) => Some(a.as_u8()?),
                    None => None,
                },
            },
        },
        cmd::CMD_ANNOUNCE_ADDR => PmNlMessage::Command {
            seq,
            cmd: PmNlCommand::AnnounceAddr {
                token: token()?,
                addr_id: find_attr(&attrs, attr::ADDR_ID)?.as_u8()?,
                addr: Addr(find_attr(&attrs, attr::ADDR)?.as_u32()?),
            },
        },
        cmd::CMD_WITHDRAW_ADDR => PmNlMessage::Command {
            seq,
            cmd: PmNlCommand::WithdrawAddr {
                token: token()?,
                addr_id: find_attr(&attrs, attr::ADDR_ID)?.as_u8()?,
            },
        },
        cmd::REPLY_INFO => {
            let mut subflows = Vec::new();
            for a in &attrs {
                if a.ty == attr::SUBFLOW_NEST {
                    let inner = attr_map(a.nested_attrs())?;
                    let id = find_attr(&inner, attr::SUBFLOW_ID)?.as_u8()?;
                    let info = decode_tcp_info(find_attr(&inner, attr::TCP_INFO)?.payload)?;
                    subflows.push((id, info));
                }
            }
            let conn = match (
                find_attr_opt(&attrs, attr::DATA_SND_UNA),
                find_attr_opt(&attrs, attr::DATA_SND_NXT),
            ) {
                (Some(u), Some(n)) => Some((u.as_u64()?, n.as_u64()?)),
                _ => None,
            };
            PmNlMessage::InfoReply {
                seq,
                token: token()?,
                conn,
                subflows,
            }
        }
        cmd::REPLY_ACK => PmNlMessage::Ack {
            seq,
            errno: find_attr(&attrs, attr::ERROR)?.as_u16()?,
        },
        cmd::CMD_DIAG => PmNlMessage::DiagRequest {
            seq,
            token: match find_attr_opt(&attrs, attr::TOKEN) {
                Some(a) => Some(a.as_u32()?),
                None => None,
            },
        },
        cmd::REPLY_DIAG => {
            let mut conns = Vec::new();
            for a in &attrs {
                if a.ty == attr::CONN_NEST {
                    conns.push(decode_diag_conn(a)?);
                }
            }
            PmNlMessage::DiagReply { seq, conns }
        }
        other => return Err(NlError::UnknownCmd(other)),
    };
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn tuple() -> FourTuple {
        FourTuple {
            src: Addr::new(10, 0, 0, 1),
            src_port: 43210,
            dst: Addr::new(10, 0, 1, 1),
            dst_port: 80,
        }
    }

    fn roundtrip_event(ev: PmEvent) {
        let bytes = encode_event(&ev);
        let got = decode(&bytes).unwrap();
        assert_eq!(got, PmNlMessage::Event(ev));
    }

    #[test]
    fn all_events_roundtrip() {
        roundtrip_event(PmEvent::ConnCreated {
            token: 0xDEAD_BEEF,
            tuple: tuple(),
            initial_subflow: 0,
            is_client: true,
        });
        roundtrip_event(PmEvent::ConnEstablished {
            token: 1,
            tuple: tuple(),
            is_client: false,
        });
        roundtrip_event(PmEvent::ConnClosed { token: 2 });
        roundtrip_event(PmEvent::SubflowEstablished {
            token: 3,
            id: 2,
            tuple: tuple(),
            backup: true,
            initiated_here: false,
        });
        roundtrip_event(PmEvent::SubflowClosed {
            token: 4,
            id: 1,
            tuple: tuple(),
            error: SubflowError::Reset,
        });
        roundtrip_event(PmEvent::AddAddrReceived {
            token: 5,
            addr_id: 2,
            addr: Addr::new(192, 168, 0, 9),
            port: Some(8080),
        });
        roundtrip_event(PmEvent::AddAddrReceived {
            token: 5,
            addr_id: 2,
            addr: Addr::new(192, 168, 0, 9),
            port: None,
        });
        roundtrip_event(PmEvent::RemAddrReceived {
            token: 6,
            addr_id: 3,
        });
        roundtrip_event(PmEvent::RtoExpired {
            token: 7,
            id: 0,
            current_rto: Duration::from_millis(1600),
            backoffs: 3,
        });
        roundtrip_event(PmEvent::LocalAddrUp {
            addr: Addr::new(10, 0, 9, 9),
        });
        roundtrip_event(PmEvent::LocalAddrDown {
            addr: Addr::new(10, 0, 9, 9),
        });
    }

    fn roundtrip_command(c: PmNlCommand) {
        let bytes = encode_command(77, &c);
        match decode(&bytes).unwrap() {
            PmNlMessage::Command { seq, cmd } => {
                assert_eq!(seq, 77);
                assert_eq!(cmd, c);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn all_commands_roundtrip() {
        roundtrip_command(PmNlCommand::Subscribe { mask: 0x3FF });
        roundtrip_command(PmNlCommand::SubflowCreate {
            token: 9,
            src: Addr::new(10, 0, 2, 1),
            src_port: 0,
            dst: Addr::new(10, 0, 1, 1),
            dst_port: 80,
            backup: true,
        });
        roundtrip_command(PmNlCommand::SubflowClose {
            token: 9,
            id: 4,
            reset: true,
        });
        roundtrip_command(PmNlCommand::SetBackup {
            token: 9,
            id: 1,
            backup: false,
        });
        roundtrip_command(PmNlCommand::GetInfo { token: 9, id: None });
        roundtrip_command(PmNlCommand::GetInfo {
            token: 9,
            id: Some(2),
        });
        roundtrip_command(PmNlCommand::AnnounceAddr {
            token: 9,
            addr_id: 5,
            addr: Addr::new(172, 16, 0, 1),
        });
        roundtrip_command(PmNlCommand::WithdrawAddr {
            token: 9,
            addr_id: 5,
        });
    }

    #[test]
    fn tcp_info_blob_roundtrip() {
        let info = TcpInfo {
            state: TcpStateInfo::Established,
            srtt_us: 20_000,
            rttvar_us: 5_000,
            rto_us: 200_000,
            backoffs: 2,
            cwnd: 140_000,
            ssthresh: 70_000,
            pacing_rate: 1_234_567,
            snd_una: 99,
            snd_nxt: 100,
            in_flight: 1,
            bytes_acked: 98,
            retrans: 7,
            backup: true,
        };
        let blob = encode_tcp_info(&info);
        assert_eq!(decode_tcp_info(&blob).unwrap(), info);
    }

    #[test]
    fn tcp_info_blob_rejects_bad() {
        assert!(decode_tcp_info(&[]).is_err());
        let mut blob = encode_tcp_info(&TcpInfo::default()).to_vec();
        blob[0] = 99; // wrong version
        assert!(decode_tcp_info(&blob).is_err());
    }

    #[test]
    fn info_reply_roundtrip() {
        let infos = vec![
            (
                0u8,
                TcpInfo {
                    srtt_us: 10_000,
                    pacing_rate: 5_000_000,
                    ..Default::default()
                },
            ),
            (
                3u8,
                TcpInfo {
                    srtt_us: 40_000,
                    pacing_rate: 1_000_000,
                    backup: true,
                    ..Default::default()
                },
            ),
        ];
        let bytes = encode_info_reply(42, 0xABCD, Some((1000, 2000)), &infos);
        match decode(&bytes).unwrap() {
            PmNlMessage::InfoReply {
                seq,
                token,
                conn,
                subflows,
            } => {
                assert_eq!(seq, 42);
                assert_eq!(token, 0xABCD);
                assert_eq!(conn, Some((1000, 2000)));
                assert_eq!(subflows, infos);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Without conn-level info.
        let bytes = encode_info_reply(43, 0xABCD, None, &[]);
        match decode(&bytes).unwrap() {
            PmNlMessage::InfoReply { conn, subflows, .. } => {
                assert_eq!(conn, None);
                assert!(subflows.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn ack_roundtrip() {
        let bytes = encode_ack(7, 110);
        assert_eq!(
            decode(&bytes).unwrap(),
            PmNlMessage::Ack { seq: 7, errno: 110 }
        );
    }

    #[test]
    fn diag_request_roundtrip() {
        let bytes = encode_diag_request(11, Some(0xFEED));
        assert_eq!(
            decode(&bytes).unwrap(),
            PmNlMessage::DiagRequest {
                seq: 11,
                token: Some(0xFEED),
            }
        );
        let bytes = encode_diag_request(12, None);
        assert_eq!(
            decode(&bytes).unwrap(),
            PmNlMessage::DiagRequest {
                seq: 12,
                token: None,
            }
        );
    }

    #[test]
    fn diag_reply_roundtrip() {
        let conns = vec![
            DiagConn {
                token: 0xA1,
                state: ConnState::Established,
                fallback_inferred: false,
                meta_una: 4_000,
                meta_snd_nxt: 6_500,
                tap_sent: (6_500, 0xDEAD),
                tap_recvd: (1_200, 0xBEEF),
                reinjections: 2,
                subflows: vec![
                    (
                        0u8,
                        TcpInfo {
                            srtt_us: 12_000,
                            cwnd: 20_000,
                            ..Default::default()
                        },
                    ),
                    (
                        1u8,
                        TcpInfo {
                            srtt_us: 55_000,
                            backup: true,
                            ..Default::default()
                        },
                    ),
                ],
            },
            DiagConn {
                token: 0xB2,
                state: ConnState::Closed,
                fallback_inferred: true,
                meta_una: 0,
                meta_snd_nxt: 0,
                tap_sent: (0, 0xcbf29ce484222325),
                tap_recvd: (0, 0xcbf29ce484222325),
                reinjections: 0,
                subflows: vec![],
            },
        ];
        let bytes = encode_diag_reply(21, &conns);
        match decode(&bytes).unwrap() {
            PmNlMessage::DiagReply { seq, conns: got } => {
                assert_eq!(seq, 21);
                assert_eq!(got, conns);
            }
            other => panic!("unexpected {other:?}"),
        }
        // An empty dump still decodes.
        let bytes = encode_diag_reply(22, &[]);
        assert_eq!(
            decode(&bytes).unwrap(),
            PmNlMessage::DiagReply {
                seq: 22,
                conns: vec![],
            }
        );
    }

    #[test]
    fn conn_state_u8_roundtrip() {
        for s in [
            ConnState::Establishing,
            ConnState::Established,
            ConnState::Closed,
        ] {
            assert_eq!(conn_state_from_u8(conn_state_to_u8(s)), s);
        }
    }

    #[test]
    fn unknown_cmd_rejected() {
        let mut b = fb(200, 0, 0, 0);
        b.attr_u32(attr::TOKEN, 1);
        let bytes = b.finish();
        assert!(matches!(decode(&bytes), Err(NlError::UnknownCmd(200))));
    }

    #[test]
    fn command_to_action_mapping() {
        assert!(PmNlCommand::Subscribe { mask: 1 }.to_action().is_none());
        assert!(PmNlCommand::GetInfo { token: 1, id: None }
            .to_action()
            .is_none());
        let c = PmNlCommand::SubflowCreate {
            token: 1,
            src: Addr::new(1, 1, 1, 1),
            src_port: 0,
            dst: Addr::new(2, 2, 2, 2),
            dst_port: 80,
            backup: false,
        };
        assert!(matches!(
            c.to_action(),
            Some(PmAction::OpenSubflow { token: 1, .. })
        ));
    }
}
