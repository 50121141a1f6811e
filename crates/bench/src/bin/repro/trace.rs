//! The `--trace <path>` chrome://tracing export.

use std::collections::{BTreeMap, BTreeSet};

use gmsim_des::{TracePayload, TraceRecord, Unit};
use gmsim_testbed::{Algorithm, BarrierExperiment, Descriptor};

use crate::{run, StudyError};

/// `--trace <path>`: run a 16-node NIC-based PE barrier stream with
/// structured tracing enabled and export it as chrome://tracing JSON
/// (load in Perfetto or chrome://tracing). Every process is a node,
/// every thread a NIC unit; SDMA transfers become duration spans and a
/// derived per-node "nic barrier" span runs from the collective token
/// post to the completion DMA.
pub fn export_chrome(path: &str) -> Result<(), StudyError> {
    let m = run(&BarrierExperiment::new(16, Algorithm::Nic(Descriptor::Pe))
        .rounds(12, 2)
        .trace(1 << 16))?;
    let records = &m.trace;

    // Thread ids follow the units' declaration order, host = 0 .. ext = 6.
    let tid = |u: Unit| u as u32;
    let ts_us = |r: &TraceRecord| r.at.as_ns() as f64 / 1000.0;

    let mut events = Vec::with_capacity(records.len() + 64);

    // Process/thread naming metadata.
    let nodes: BTreeSet<u32> = records.iter().map(|r| r.component.node).collect();
    for &n in &nodes {
        events.push(format!(
            "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{n},\
             \"args\":{{\"name\":\"node{n}\"}}}}"
        ));
        for u in [
            Unit::Host,
            Unit::Sdma,
            Unit::Send,
            Unit::Recv,
            Unit::Rdma,
            Unit::Wire,
            Unit::Ext,
        ] {
            events.push(format!(
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{n},\"tid\":{},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                tid(u),
                u.name()
            ));
        }
    }

    // Derived per-node barrier spans: collective token post → completion
    // DMA. Ring eviction can orphan a completion; skip those.
    let mut open: BTreeMap<u32, f64> = BTreeMap::new();
    for r in records {
        match r.payload {
            TracePayload::SendTokenPost {
                collective: true, ..
            } => {
                open.entry(r.component.node).or_insert_with(|| ts_us(r));
            }
            TracePayload::CompletionDma { .. } => {
                if let Some(start) = open.remove(&r.component.node) {
                    events.push(format!(
                        "{{\"ph\":\"X\",\"name\":\"nic barrier\",\"cat\":\"barrier\",\
                         \"pid\":{},\"tid\":{},\"ts\":{start:.3},\"dur\":{:.3}}}",
                        r.component.node,
                        tid(Unit::Ext),
                        ts_us(r) - start,
                    ));
                }
            }
            _ => {}
        }
    }

    // The records themselves: SDMA begin/end pairs as B/E spans,
    // everything else as instants.
    for r in records {
        let (pid, t) = (r.component.node, ts_us(r));
        let tid = tid(r.component.unit);
        events.push(match r.payload {
            TracePayload::SdmaStart { bytes } => format!(
                "{{\"ph\":\"B\",\"name\":\"sdma\",\"cat\":\"dma\",\"pid\":{pid},\
                 \"tid\":{tid},\"ts\":{t:.3},\"args\":{{\"bytes\":{bytes}}}}}"
            ),
            TracePayload::SdmaFinish { .. } => format!(
                "{{\"ph\":\"E\",\"name\":\"sdma\",\"cat\":\"dma\",\"pid\":{pid},\
                 \"tid\":{tid},\"ts\":{t:.3}}}"
            ),
            p => format!(
                "{{\"ph\":\"i\",\"name\":\"{}\",\"cat\":\"event\",\"pid\":{pid},\
                 \"tid\":{tid},\"ts\":{t:.3},\"s\":\"t\"}}",
                p.name()
            ),
        });
    }
    let out = format!(
        "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n{}\n]}}\n",
        events.join(",\n")
    );
    std::fs::write(path, out).map_err(|err| StudyError(format!("writing {path}: {err}")))?;
    println!(
        "wrote {} trace events ({} structured records) to {path}",
        records.len() + open.len(),
        records.len()
    );
    Ok(())
}
