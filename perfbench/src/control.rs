//! A frequency controller that times its inner controller's
//! `interval_update` calls and otherwise delegates everything.

use mcd_clock::{DomainId, MegaHertz};
use mcd_control::{FrequencyCommand, FrequencyController, IntervalSample};
use serde::codec::{ByteReader, ByteWriter, Result as CodecResult};

use crate::spans::Tracer;

/// Name of the span recorded around each `interval_update` call.
pub const UPDATE_SPAN: &str = "control.interval_update";

/// Wraps a controller; records an [`UPDATE_SPAN`] per control interval
/// when the tracer is on.  Behaviour is exactly the inner controller's.
pub struct Timed {
    inner: Box<dyn FrequencyController>,
    tracer: Tracer,
}

impl Timed {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: Box<dyn FrequencyController>, tracer: Tracer) -> Self {
        Timed { inner, tracer }
    }
}

impl FrequencyController for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn initial_freq_mhz(&self, domain: DomainId) -> Option<MegaHertz> {
        self.inner.initial_freq_mhz(domain)
    }

    fn interval_update(&mut self, sample: &IntervalSample) -> Vec<FrequencyCommand> {
        let inner = &mut self.inner;
        self.tracer
            .span(UPDATE_SPAN, || inner.interval_update(sample))
    }

    fn finish(&mut self) {
        self.inner.finish();
    }

    fn save_state(&self, w: &mut ByteWriter) {
        self.inner.save_state(w);
    }

    fn load_state(&mut self, r: &mut ByteReader<'_>) -> CodecResult<()> {
        self.inner.load_state(r)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use mcd_clock::OperatingPointTable;
    use mcd_control::{AttackDecayController, AttackDecayParams};
    use mcd_sim::{McdProcessor, SimConfig};
    use mcd_workloads::{Benchmark, SharedTrace};

    use super::*;

    fn attack_decay() -> Box<dyn FrequencyController> {
        Box::new(AttackDecayController::new(
            AttackDecayParams::paper_defaults(),
            &OperatingPointTable::default(),
        ))
    }

    #[test]
    fn a_wrapped_run_equals_an_unwrapped_one() {
        let mut config = SimConfig::baseline_mcd(8_000);
        config.interval_instructions = 500;
        config.seed = 3;
        let trace = Arc::new(SharedTrace::materialize(&Benchmark::Gzip.spec(), 3, 8_000));
        let run = |controller| {
            let mut cpu = McdProcessor::new(config.clone(), controller);
            cpu.warm_caches(trace.warm_regions());
            cpu.run(trace.cursor())
        };
        let tracer = Tracer::on();
        let wrapped = run(Box::new(Timed::new(attack_decay(), tracer.clone())));
        let plain = run(attack_decay());
        assert_eq!(wrapped, plain);
        // Sixteen intervals of 500 instructions; the controller saw them.
        assert!(tracer.spans().iter().all(|s| s.name == UPDATE_SPAN));
        assert!(tracer.len() >= 15, "{} updates", tracer.len());
    }

    #[test]
    fn state_and_identity_pass_through() {
        let timed = Timed::new(attack_decay(), Tracer::default());
        let plain = attack_decay();
        assert_eq!(timed.name(), plain.name());
        for d in DomainId::ALL {
            assert_eq!(timed.initial_freq_mhz(d), plain.initial_freq_mhz(d));
        }
        let (mut a, mut b) = (ByteWriter::new(), ByteWriter::new());
        timed.save_state(&mut a);
        plain.save_state(&mut b);
        let bytes = a.into_vec();
        assert_eq!(bytes, b.into_vec());
        let mut restored = Timed::new(attack_decay(), Tracer::default());
        restored
            .load_state(&mut ByteReader::new(&bytes))
            .expect("state written by the same controller kind loads");
    }
}
