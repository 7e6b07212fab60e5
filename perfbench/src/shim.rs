//! Per-protocol tracing from outside the engine: a [`ProtocolFactory`]
//! registered under the real protocol's name whose agents time every
//! hook and forward it, unchanged, to the real agent.

use crate::trace::{Hook, RunHooks, Span, Trace};
use mesh_sim::{
    Ctx, DropCause, DynPayload, ErasedFlowAgent, FlowDesc, FlowProgressView, Frame, OutFrame,
    TxOutcome,
};
use mesh_topology::{NodeId, Topology};
use more_scenario::{BuildError, ExpConfig, FlowSpec, ProtocolFactory, ProtocolRegistry};
use std::any::Any;
use std::sync::Arc;
use std::time::Instant;

const SRC: u8 = 0;
const FWD: u8 = 1;
const DST: u8 = 2;

/// Wraps a real factory; its agents report to `trace`.
pub struct TracingFactory {
    inner: Arc<dyn ProtocolFactory>,
    trace: Arc<Trace>,
}

impl TracingFactory {
    /// A registry holding, for each of `names`, the tracing wrapper of
    /// `base`'s factory under the same name.
    pub fn registry(
        base: &ProtocolRegistry,
        names: &[&str],
        trace: &Arc<Trace>,
    ) -> Result<ProtocolRegistry, BuildError> {
        let mut reg = ProtocolRegistry::new();
        for name in names {
            reg.register(TracingFactory {
                inner: base.resolve(name)?,
                trace: Arc::clone(trace),
            });
        }
        Ok(reg)
    }
}

impl ProtocolFactory for TracingFactory {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn build(
        &self,
        topo: &Topology,
        flows: &[FlowSpec],
        cfg: &ExpConfig,
    ) -> Result<Box<dyn ErasedFlowAgent>, BuildError> {
        let t0 = Instant::now();
        let agent = self.inner.build(topo, flows, cfg)?;
        let run = self.trace.current_run();
        self.trace
            .span(self.trace.new_id(), run, "build", self.name(), t0);
        let mut traced = TracedAgent::new(agent, self.name(), topo.n(), Arc::clone(&self.trace));
        for f in flows {
            traced.assign_roles(f.src, &f.dsts);
        }
        Ok(Box::new(traced))
    }
}

/// The shim agent: times each hook into per-run sums and forwards it.
/// Its sums and `add_flow` spans reach the trace when it is dropped.
pub struct TracedAgent {
    inner: Box<dyn ErasedFlowAgent>,
    /// Per node: [`SRC`], [`FWD`] or [`DST`].
    roles: Vec<u8>,
    hooks: RunHooks,
    spans: Vec<Span>,
    trace: Arc<Trace>,
}

impl TracedAgent {
    pub fn new(
        inner: Box<dyn ErasedFlowAgent>,
        protocol: &str,
        nodes: usize,
        trace: Arc<Trace>,
    ) -> Self {
        TracedAgent {
            inner,
            roles: vec![FWD; nodes],
            hooks: RunHooks {
                run: trace.current_run(),
                protocol: protocol.to_string(),
                ..RunHooks::default()
            },
            spans: Vec::new(),
            trace,
        }
    }

    fn assign_roles(&mut self, src: NodeId, dsts: &[NodeId]) {
        for d in dsts {
            if let Some(r) = self.roles.get_mut(d.0) {
                if *r == FWD {
                    *r = DST;
                }
            }
        }
        if let Some(r) = self.roles.get_mut(src.0) {
            *r = SRC;
        }
    }

    fn role(&self, node: NodeId) -> usize {
        usize::from(self.roles.get(node.0).copied().unwrap_or(FWD))
    }

    fn done(&mut self, hook: Hook, t0: Instant) -> u64 {
        let nanos = t0.elapsed().as_nanos() as u64;
        self.hooks.hooks[hook as usize].add(nanos);
        nanos
    }
}

impl Drop for TracedAgent {
    fn drop(&mut self) {
        self.trace.push_spans(self.spans.drain(..));
        self.trace.push_run(std::mem::take(&mut self.hooks));
    }
}

impl ErasedFlowAgent for TracedAgent {
    fn on_receive(&mut self, node: NodeId, frame: &Frame<DynPayload>, ctx: &mut Ctx<'_>) {
        let t0 = Instant::now();
        self.inner.on_receive(node, frame, ctx);
        let nanos = self.done(Hook::OnReceive, t0);
        let role = self.role(node);
        self.hooks.on_receive_by_role[role].add(nanos);
    }

    fn on_tx_done(&mut self, node: NodeId, outcome: TxOutcome, ctx: &mut Ctx<'_>) {
        let t0 = Instant::now();
        self.inner.on_tx_done(node, outcome, ctx);
        self.done(Hook::OnTxDone, t0);
    }

    fn poll_tx(&mut self, node: NodeId, ctx: &mut Ctx<'_>) -> Option<OutFrame<DynPayload>> {
        let t0 = Instant::now();
        let out = self.inner.poll_tx(node, ctx);
        let nanos = self.done(Hook::PollTx, t0);
        let role = self.role(node);
        self.hooks.poll_tx_by_role[role].add(nanos);
        out
    }

    fn on_timer(&mut self, node: NodeId, token: u64, ctx: &mut Ctx<'_>) {
        let t0 = Instant::now();
        self.inner.on_timer(node, token, ctx);
        self.done(Hook::OnTimer, t0);
    }

    fn on_queue_drop(
        &mut self,
        node: NodeId,
        payload: DynPayload,
        cause: DropCause,
        ctx: &mut Ctx<'_>,
    ) {
        let t0 = Instant::now();
        self.inner.on_queue_drop(node, payload, cause, ctx);
        self.done(Hook::OnQueueDrop, t0);
    }

    fn recycle(&mut self, payload: DynPayload) {
        let t0 = Instant::now();
        self.inner.recycle(payload);
        self.done(Hook::Recycle, t0);
    }

    fn flows_done(&self) -> bool {
        self.inner.flows_done()
    }

    fn flow_progress(&self, index: usize) -> FlowProgressView {
        self.inner.flow_progress(index)
    }

    fn supports_dynamic_flows(&self) -> bool {
        self.inner.supports_dynamic_flows()
    }

    fn add_flow(&mut self, desc: &FlowDesc) -> usize {
        let t0 = Instant::now();
        let index = self.inner.add_flow(desc);
        let nanos = self.done(Hook::AddFlow, t0);
        let start_ns = self.trace.ns(t0);
        self.spans.push(Span {
            id: self.trace.new_id(),
            parent: self.hooks.run,
            name: "add_flow",
            protocol: self.hooks.protocol.clone(),
            start_ns,
            end_ns: start_ns + nanos,
        });
        self.assign_roles(desc.src, &desc.dsts);
        index
    }

    fn end_flow(&mut self, index: usize) {
        let t0 = Instant::now();
        self.inner.end_flow(index);
        self.done(Hook::EndFlow, t0);
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

#[cfg(test)]
mod test {
    use super::*;
    use crate::trace::HOOKS;
    use mesh_sim::{ChannelSpec, QueueSpec, SimConfig, Simulator, MS, SEC};
    use mesh_topology::generate;
    use std::cell::RefCell;
    use std::collections::BTreeMap;
    use std::rc::Rc;

    /// Counts every call it receives; node 0 broadcasts `left` frames
    /// of flow 1 and arms one timer.
    struct Probe {
        calls: Rc<RefCell<BTreeMap<&'static str, u64>>>,
        left: u32,
        timer_armed: bool,
    }

    impl Probe {
        fn hit(&self, method: &'static str) {
            *self.calls.borrow_mut().entry(method).or_default() += 1;
        }
    }

    impl ErasedFlowAgent for Probe {
        fn on_receive(&mut self, _: NodeId, frame: &Frame<DynPayload>, _: &mut Ctx<'_>) {
            assert_eq!(frame.payload.downcast_ref::<u32>(), Some(&7));
            self.hit("on_receive");
        }
        fn on_tx_done(&mut self, node: NodeId, _: TxOutcome, ctx: &mut Ctx<'_>) {
            self.hit("on_tx_done");
            if self.left > 0 {
                ctx.mark_backlogged(node);
            }
        }
        fn poll_tx(&mut self, node: NodeId, ctx: &mut Ctx<'_>) -> Option<OutFrame<DynPayload>> {
            self.hit("poll_tx");
            if !self.timer_armed {
                self.timer_armed = true;
                ctx.set_timer(node, MS, 42);
            }
            if node != NodeId(0) || self.left == 0 {
                return None;
            }
            self.left -= 1;
            Some(OutFrame {
                dst: None,
                bytes: 200,
                bitrate: None,
                flow: Some(1),
                payload: Rc::new(7u32),
            })
        }
        fn on_timer(&mut self, _: NodeId, token: u64, _: &mut Ctx<'_>) {
            assert_eq!(token, 42);
            self.hit("on_timer");
        }
        fn on_queue_drop(&mut self, _: NodeId, _: DynPayload, _: DropCause, _: &mut Ctx<'_>) {
            self.hit("on_queue_drop");
        }
        fn recycle(&mut self, _: DynPayload) {
            self.hit("recycle");
        }
        fn flows_done(&self) -> bool {
            self.hit("flows_done");
            self.left == 0
        }
        fn flow_progress(&self, index: usize) -> FlowProgressView {
            self.hit("flow_progress");
            FlowProgressView {
                delivered: index * 10 + 3,
                completed_at: Some(5),
                done: true,
            }
        }
        fn supports_dynamic_flows(&self) -> bool {
            self.hit("supports_dynamic_flows");
            true
        }
        fn add_flow(&mut self, desc: &FlowDesc) -> usize {
            self.hit("add_flow");
            desc.packets
        }
        fn end_flow(&mut self, _: usize) {
            self.hit("end_flow");
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn shim_forwards_every_method_and_counts_every_hook() {
        let calls = Rc::new(RefCell::new(BTreeMap::new()));
        let trace = Arc::new(Trace::new());
        trace.begin_run();
        let probe = Probe {
            calls: Rc::clone(&calls),
            left: 40,
            timer_armed: false,
        };
        let mut shim = TracedAgent::new(Box::new(probe), "Probe", 3, Arc::clone(&trace));
        shim.assign_roles(NodeId(0), &[NodeId(2)]);

        // Hooks without a simulator context, called directly.
        assert_eq!(
            shim.add_flow(&FlowDesc::unicast(NodeId(1), NodeId(2), 9)),
            9
        );
        shim.end_flow(0);
        shim.recycle(Rc::new(7u32));
        assert!(shim.supports_dynamic_flows());
        assert_eq!(shim.flow_progress(4).delivered, 43);
        assert!(shim.as_any().downcast_ref::<Probe>().is_some());
        assert!(shim.as_any_mut().downcast_mut::<Probe>().is_some());

        // Hooks with a context, driven by the engine: a one-frame
        // DropTail queue overflows, so queue drops reach the agent too.
        let topo = generate::line(2, 0.9, 0.5, 20.0);
        let agent: Box<dyn ErasedFlowAgent> = Box::new(shim);
        let mut sim = Simulator::with_queue(
            topo,
            SimConfig::default(),
            &ChannelSpec::Static,
            &QueueSpec::drop_tail(1),
            agent,
            1,
        );
        sim.kick(NodeId(0));
        #[allow(clippy::borrowed_box)]
        sim.run_until(10 * SEC, |a: &Box<dyn ErasedFlowAgent>| a.flows_done());
        drop(sim);

        let (spans, runs) = trace.take();
        assert_eq!(runs.len(), 1, "the agent reports its sums when dropped");
        let hooks = &runs[0];
        let calls = calls.borrow();
        for (i, name) in HOOKS.iter().enumerate() {
            let inner = calls.get(name).copied().unwrap_or(0);
            assert!(inner > 0, "{name} never reached the inner agent");
            assert_eq!(hooks.hooks[i].calls, inner, "{name} calls");
        }
        for forwarded in ["flows_done", "flow_progress", "supports_dynamic_flows"] {
            assert!(calls.contains_key(forwarded), "{forwarded} not forwarded");
        }
        let by_role: u64 = hooks.poll_tx_by_role.iter().map(|h| h.calls).sum();
        assert_eq!(by_role, hooks.hooks[Hook::PollTx as usize].calls);
        assert!(hooks.poll_tx_by_role[0].calls > 0, "node 0 is the source");
        assert_eq!(spans.iter().filter(|s| s.name == "add_flow").count(), 1);
        assert!(spans.iter().all(|s| s.parent == hooks.run));
    }
}
