//! The traced run's profiler: timing delegates around each layer's public
//! trait, measured from outside the program.
//!
//! Every wrapped callback is a span on one thread-local stack. A span's
//! self time is its duration minus the spans nested inside it, so a host
//! callback that hands a packet to the oracle, an app or the path manager
//! is charged only for its own work. Whatever the spans leave of a run's
//! wall time is the simulator core: the calendar queue, the link model and
//! dispatch.
//!
//! The delegates forward `as_any`/`as_any_mut` to the wrapped value, so
//! scenario code and `smapp_pm::verify::conclude` still find `Host`,
//! `Router`, `NetlinkPm` and the controller behind them.

use std::any::Any;
use std::cell::RefCell;
use std::time::Instant;

use bytes::Bytes;
use smapp_mptcp::{App, AppCtx, PathManagerHook, PmActions, PmEvent, StackView};
use smapp_netlink::{UserCtx, UserProcess};
use smapp_sim::{
    Ctx, IfaceId, Node, NodeCommand, NodeId, Packet, SimTime, TraceEvent, TraceKind, TraceSink,
};

/// A layer that owns wrapped callbacks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `smapp_pm::Host` node callbacks: the TCP/MPTCP stack and the glue.
    Host,
    /// `smapp_sim::Router` node callbacks.
    Router,
    /// The wire oracle's `TraceSink::record`.
    Oracle,
    /// `App` callbacks.
    Apps,
    /// The userspace controller (`UserProcess`).
    Controller,
    /// The kernel path-manager hook (`PathManagerHook::on_event`).
    KernelHook,
}

/// Number of [`Layer`]s.
pub const LAYERS: usize = 6;

/// Host-side segments and netlink frames kept for the replays: every
/// `SAMPLE_STRIDE`-th one, at most `SAMPLE_CAP` of each.
const SAMPLE_STRIDE: u64 = 7;
const SAMPLE_CAP: usize = 2048;

/// Inputs captured from the traced run for the sub-layer replays.
#[derive(Default)]
pub struct Samples {
    /// Encoded TCP segments delivered to hosts.
    pub segments: Vec<Bytes>,
    /// Netlink frames crossing the user/kernel boundary, both directions.
    pub frames: Vec<Bytes>,
}

/// What one traced run measured.
#[derive(Default)]
pub struct Profile {
    /// Self time per layer, nanoseconds (indexed by `Layer as usize`).
    pub self_ns: [u64; LAYERS],
    /// Wrapped callbacks per layer.
    pub calls: [u64; LAYERS],
    /// Trace records by kind: send, enqueue, tx_start, drop, deliver.
    pub trace: [u64; 5],
    /// Segments delivered to a host (each one decoded by its stack).
    pub host_rx: u64,
    /// Segments sent by a host (each one encoded by its stack).
    pub host_tx: u64,
    /// Netlink frames crossing the boundary, both directions.
    pub nl_frames: u64,
    /// Replay inputs.
    pub samples: Samples,
}

struct Frame {
    layer: Layer,
    start: Instant,
    child_ns: u64,
}

#[derive(Default)]
struct State {
    stack: Vec<Frame>,
    prof: Profile,
    /// `is_host[node]` — which nodes run a TCP/MPTCP stack.
    is_host: Vec<bool>,
}

thread_local! {
    static STATE: RefCell<State> = RefCell::new(State::default());
}

/// Start a fresh profile; `is_host[n]` marks the nodes that are hosts.
pub fn reset(is_host: Vec<bool>) {
    STATE.with(|s| {
        *s.borrow_mut() = State {
            is_host,
            ..State::default()
        }
    });
}

/// Take the profile collected since [`reset`].
pub fn take() -> Profile {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        assert!(s.stack.is_empty(), "profile taken inside a span");
        std::mem::take(&mut s.prof)
    })
}

fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    STATE.with(|s| {
        s.borrow_mut().stack.push(Frame {
            layer,
            start: Instant::now(),
            child_ns: 0,
        })
    });
    let r = f();
    let end = Instant::now();
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        let frame = s.stack.pop().expect("span stack underflow");
        let total = end.duration_since(frame.start).as_nanos() as u64;
        let l = frame.layer as usize;
        s.prof.self_ns[l] += total.saturating_sub(frame.child_ns);
        s.prof.calls[l] += 1;
        if let Some(parent) = s.stack.last_mut() {
            parent.child_ns += total;
        }
    });
    r
}

fn with_state(f: impl FnOnce(&mut State)) {
    STATE.with(|s| f(&mut s.borrow_mut()));
}

fn sample(pool: &mut Vec<Bytes>, seen: u64, b: &[u8]) {
    if seen.is_multiple_of(SAMPLE_STRIDE) && pool.len() < SAMPLE_CAP {
        // A copy, so the sample does not pin the stack's buffer pool.
        pool.push(Bytes::copy_from_slice(b));
    }
}

/// A node (host or router) whose callbacks are timed as `layer`.
pub struct TimedNode {
    inner: Box<dyn Node>,
    layer: Layer,
}

impl TimedNode {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn Node>, layer: Layer) -> Self {
        TimedNode { inner, layer }
    }
}

impl Node for TimedNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        span(self.layer, || self.inner.on_start(ctx))
    }
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, pkt: Packet) {
        span(self.layer, || self.inner.on_packet(ctx, iface, pkt))
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        span(self.layer, || self.inner.on_timer(ctx, token))
    }
    fn on_iface_admin(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, up: bool) {
        span(self.layer, || self.inner.on_iface_admin(ctx, iface, up))
    }
    fn on_command(&mut self, ctx: &mut Ctx<'_>, cmd: &NodeCommand) {
        span(self.layer, || self.inner.on_command(ctx, cmd))
    }
    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// The wire oracle (or any sink), timed as [`Layer::Oracle`]. It also
/// counts records by kind and samples the segments hosts receive.
pub struct TimedSink {
    /// The wrapped sink; put it back with `set_trace` before concluding.
    pub inner: Box<dyn TraceSink>,
}

impl TraceSink for TimedSink {
    fn record(&mut self, ev: &TraceEvent<'_>) {
        with_state(|s| {
            let (kind, host) = match ev.kind {
                TraceKind::Send { node, .. } => (0, Some((node, false))),
                TraceKind::Enqueue { .. } => (1, None),
                TraceKind::TxStart { .. } => (2, None),
                TraceKind::Drop { .. } => (3, None),
                TraceKind::Deliver { node, .. } => (4, Some((node, true))),
            };
            s.prof.trace[kind] += 1;
            if let Some((NodeId(n), rx)) = host {
                if s.is_host.get(n).copied().unwrap_or(false) {
                    if rx {
                        let seen = s.prof.host_rx;
                        s.prof.host_rx += 1;
                        sample(&mut s.prof.samples.segments, seen, &ev.pkt.payload);
                    } else {
                        s.prof.host_tx += 1;
                    }
                }
            }
        });
        span(Layer::Oracle, || self.inner.record(ev))
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// An app timed as [`Layer::Apps`].
pub struct TimedApp {
    inner: Box<dyn App>,
}

impl TimedApp {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn App>) -> Self {
        TimedApp { inner }
    }
}

impl App for TimedApp {
    fn on_established(&mut self, ctx: &mut AppCtx<'_, '_>) {
        span(Layer::Apps, || self.inner.on_established(ctx))
    }
    fn on_data(&mut self, ctx: &mut AppCtx<'_, '_>, data: Bytes) {
        span(Layer::Apps, || self.inner.on_data(ctx, data))
    }
    fn on_send_space(&mut self, ctx: &mut AppCtx<'_, '_>) {
        span(Layer::Apps, || self.inner.on_send_space(ctx))
    }
    fn on_app_timer(&mut self, ctx: &mut AppCtx<'_, '_>, token: u64) {
        span(Layer::Apps, || self.inner.on_app_timer(ctx, token))
    }
    fn on_eof(&mut self, ctx: &mut AppCtx<'_, '_>) {
        span(Layer::Apps, || self.inner.on_eof(ctx))
    }
    fn on_closed(&mut self, now: SimTime) {
        span(Layer::Apps, || self.inner.on_closed(now))
    }
    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// A kernel path manager timed as [`Layer::KernelHook`].
pub struct TimedPm {
    inner: Box<dyn PathManagerHook>,
}

impl TimedPm {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn PathManagerHook>) -> Self {
        TimedPm { inner }
    }
}

impl PathManagerHook for TimedPm {
    fn on_event(&mut self, ev: &PmEvent, view: &dyn StackView, actions: &mut PmActions) {
        span(Layer::KernelHook, || self.inner.on_event(ev, view, actions))
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// A userspace controller timed as [`Layer::Controller`]. It also counts
/// and samples the netlink frames crossing the boundary.
pub struct TimedUser {
    inner: Box<dyn UserProcess>,
}

impl TimedUser {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn UserProcess>) -> Self {
        TimedUser { inner }
    }

    fn call(
        &mut self,
        ctx: &mut UserCtx<'_>,
        f: impl FnOnce(&mut dyn UserProcess, &mut UserCtx<'_>),
    ) {
        let before = ctx.to_kernel.len();
        span(Layer::Controller, || f(self.inner.as_mut(), ctx));
        with_state(|s| {
            for frame in &ctx.to_kernel[before..] {
                let seen = s.prof.nl_frames;
                s.prof.nl_frames += 1;
                sample(&mut s.prof.samples.frames, seen, frame);
            }
        });
    }
}

impl UserProcess for TimedUser {
    fn on_start(&mut self, ctx: &mut UserCtx<'_>) {
        self.call(ctx, |u, c| u.on_start(c))
    }
    fn on_message(&mut self, ctx: &mut UserCtx<'_>, frame: Bytes) {
        with_state(|s| {
            let seen = s.prof.nl_frames;
            s.prof.nl_frames += 1;
            sample(&mut s.prof.samples.frames, seen, &frame);
        });
        self.call(ctx, |u, c| u.on_message(c, frame))
    }
    fn on_timer(&mut self, ctx: &mut UserCtx<'_>, token: u64) {
        self.call(ctx, |u, c| u.on_timer(c, token))
    }
    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}
