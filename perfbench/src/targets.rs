//! The three ways the benchmark reaches the system: the in-process
//! [`Server`], the whole-model [`Pipeline`], and a [`NetClient`] socket
//! connection to a [`NetServer`](npcgra_net::NetServer). Each adapts the
//! system's public API to the generator's [`Target`].

use std::time::Duration;

use npcgra_net::{ClientError, NetClient};
use npcgra_nn::{Tensor, Word};
use npcgra_serve::{ModelId, Pipeline, Priority, ServeError, Server, Ticket};

use crate::drive::{Reply, Target};
use crate::plan::Planned;

/// Seeded inputs and their bit-exact reference outputs, indexed
/// `[model][input]`.
pub struct Pool {
    pub inputs: Vec<Vec<Tensor>>,
    pub refs: Vec<Vec<Vec<Word>>>,
}

impl Pool {
    pub fn input(&self, p: &Planned) -> &Tensor {
        &self.inputs[p.model as usize][p.input as usize]
    }

    pub fn reference(&self, p: &Planned) -> &[Word] {
        &self.refs[p.model as usize][p.input as usize]
    }
}

fn ticket_poll(t: &Ticket, wait: Duration, expect: &[Word]) -> Option<Result<Reply, String>> {
    match t.wait_timeout(wait) {
        Ok(r) => Some(Ok(Reply {
            bit_exact: r.output.as_slice() == expect,
            server_latency: r.latency,
            batch: r.batch_size,
            request_id: r.request_id,
            cycles: r.report.cycles,
        })),
        Err(ServeError::ReplyTimeout { .. }) => None,
        Err(e) => Some(Err(e.to_string())),
    }
}

/// In-process submits to a [`Server`].
pub struct ServerTarget<'a> {
    pub server: &'a Server,
    pub models: &'a [ModelId],
    pub pool: &'a Pool,
}

impl Target for ServerTarget<'_> {
    type Handle = Ticket;
    const SUBMIT: &'static str = "serve.submit";
    const WAIT: &'static str = "serve.wait";

    fn send(&mut self, p: &Planned) -> Result<(Ticket, u64), String> {
        let ticket = self
            .server
            .submit(self.models[p.model as usize], self.pool.input(p).clone())
            .map_err(|e| e.to_string())?;
        let id = ticket.request_id();
        Ok((ticket, id))
    }

    fn poll(&mut self, t: &Ticket, wait: Duration, expect: &[Word]) -> Option<Result<Reply, String>> {
        ticket_poll(t, wait, expect)
    }
}

/// Whole-model submits to a [`Pipeline`] (the pool has one model).
pub struct PipelineTarget<'a> {
    pub pipeline: &'a Pipeline,
    pub pool: &'a Pool,
}

impl Target for PipelineTarget<'_> {
    type Handle = Ticket;
    const SUBMIT: &'static str = "pipeline.submit";
    const WAIT: &'static str = "pipeline.wait";

    fn send(&mut self, p: &Planned) -> Result<(Ticket, u64), String> {
        let ticket = self.pipeline.submit(self.pool.input(p).clone()).map_err(|e| e.to_string())?;
        let id = ticket.request_id();
        Ok((ticket, id))
    }

    fn poll(&mut self, t: &Ticket, wait: Duration, expect: &[Word]) -> Option<Result<Reply, String>> {
        ticket_poll(t, wait, expect)
    }
}

/// Keyed, pipelined requests over one socket connection; the handle is
/// the request's correlation tag.
pub struct NetTarget<'a> {
    pub client: &'a mut NetClient,
    pub models: &'a [ModelId],
    pub pool: &'a Pool,
}

impl Target for NetTarget<'_> {
    type Handle = u64;
    const SUBMIT: &'static str = "net.submit";
    const WAIT: &'static str = "net.recv";

    fn send(&mut self, p: &Planned) -> Result<(u64, u64), String> {
        let model = self.models[p.model as usize].index() as u32;
        let tag = self
            .client
            .submit_idem(model, self.pool.input(p), Priority::Interactive, None, p.key)
            .map_err(|e| e.to_string())?;
        Ok((tag, 0))
    }

    fn poll(&mut self, tag: &u64, wait: Duration, expect: &[Word]) -> Option<Result<Reply, String>> {
        match self.client.recv_tag(*tag, wait) {
            Ok(reply) => Some(match reply.result {
                Ok(r) => Ok(Reply {
                    bit_exact: r.words == expect,
                    server_latency: Duration::from_micros(r.latency_us),
                    batch: usize::from(r.batch),
                    request_id: reply.request_id,
                    cycles: 0,
                }),
                Err((code, message)) => Err(format!("server refused ({code}): {message}")),
            }),
            Err(ClientError::Timeout) => None,
            Err(e) => Some(Err(e.to_string())),
        }
    }
}
