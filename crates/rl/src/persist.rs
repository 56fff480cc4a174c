//! Plain-text persistence for networks and agents.
//!
//! A deliberately simple, dependency-free line format (`f64` written with
//! enough digits to round-trip exactly) so pre-trained RL-S policies can be
//! shipped next to a netlist corpus and reloaded across sessions:
//!
//! ```text
//! mlp tanh 5 64 64 1
//! 1.2345678901234567e0
//! …one parameter per line…
//! ```

use crate::{Activation, Mlp, Td3Agent, Td3Config};
use std::io::{self, BufRead, Write};

fn activation_name(a: Activation) -> &'static str {
    match a {
        Activation::Linear => "linear",
        Activation::Relu => "relu",
        Activation::Tanh => "tanh",
    }
}

fn parse_activation(s: &str) -> io::Result<Activation> {
    match s {
        "linear" => Ok(Activation::Linear),
        "relu" => Ok(Activation::Relu),
        "tanh" => Ok(Activation::Tanh),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unknown activation `{other}`"),
        )),
    }
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

impl Mlp {
    /// Writes the network (shape + parameters) as text.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn save_to(&self, w: &mut dyn Write) -> io::Result<()> {
        write!(w, "mlp {}", activation_name(self.output_activation()))?;
        for d in self.dims() {
            write!(w, " {d}")?;
        }
        writeln!(w)?;
        for p in self.params() {
            // 17 significant digits round-trip any f64 exactly.
            writeln!(w, "{p:.17e}")?;
        }
        Ok(())
    }

    /// Reads a network previously written by [`Mlp::save_to`].
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for malformed headers, wrong parameter counts
    /// or unparsable numbers, and propagates reader I/O errors.
    pub fn load_from(r: &mut dyn BufRead) -> io::Result<Mlp> {
        let mut header = String::new();
        r.read_line(&mut header)?;
        let mut parts = header.split_whitespace();
        if parts.next() != Some("mlp") {
            return Err(bad("missing `mlp` header"));
        }
        let act = parse_activation(parts.next().ok_or_else(|| bad("missing activation"))?)?;
        let dims: Vec<usize> = parts
            .map(|t| t.parse().map_err(|_| bad(format!("bad dim `{t}`"))))
            .collect::<io::Result<_>>()?;
        if dims.len() < 2 {
            return Err(bad("need at least two dims"));
        }
        let mut mlp = Mlp::zeroed(&dims, act);
        let n = mlp.num_params();
        let mut line = String::new();
        for i in 0..n {
            line.clear();
            if r.read_line(&mut line)? == 0 {
                return Err(bad(format!("expected {n} parameters, got {i}")));
            }
            let v: f64 = line
                .trim()
                .parse()
                .map_err(|_| bad(format!("bad parameter `{}`", line.trim())))?;
            mlp.params_mut()[i] = v;
        }
        Ok(mlp)
    }
}

impl Td3Agent {
    /// Writes all six networks (actor/critics and their targets) plus the
    /// training-step counter. Replay buffers are *not* persisted — a
    /// reloaded agent resumes with fresh experience, matching the paper's
    /// deployment model (policy ships, experience is per-simulation).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn save_to(&self, w: &mut dyn Write) -> io::Result<()> {
        writeln!(
            w,
            "td3 {} {} {}",
            self.config().state_dim,
            self.config().action_dim,
            self.train_steps()
        )?;
        for net in self.networks() {
            net.save_to(w)?;
        }
        Ok(())
    }

    /// Reads an agent written by [`Td3Agent::save_to`]. The `config`
    /// supplies hyper-parameters (learning rates, noise, …); its dimensions
    /// must match the stored networks.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on malformed content or dimension mismatch.
    pub fn load_from(config: Td3Config, r: &mut dyn BufRead) -> io::Result<Td3Agent> {
        let mut header = String::new();
        r.read_line(&mut header)?;
        let mut parts = header.split_whitespace();
        if parts.next() != Some("td3") {
            return Err(bad("missing `td3` header"));
        }
        let sd: usize = parts
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| bad("bad state dim"))?;
        let ad: usize = parts
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| bad("bad action dim"))?;
        let steps: u64 = parts
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| bad("bad step counter"))?;
        if sd != config.state_dim || ad != config.action_dim {
            return Err(bad(format!(
                "dimension mismatch: stored {sd}/{ad}, config {}/{}",
                config.state_dim, config.action_dim
            )));
        }
        let mut nets = Vec::with_capacity(6);
        for _ in 0..6 {
            nets.push(Mlp::load_from(r)?);
        }
        Td3Agent::from_networks(config, nets, steps).map_err(bad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::io::BufReader;

    #[test]
    fn mlp_roundtrips_exactly() {
        let mut rng = StdRng::seed_from_u64(4);
        let m = Mlp::new(&[3, 8, 2], Activation::Tanh, &mut rng);
        let mut buf = Vec::new();
        m.save_to(&mut buf).unwrap();
        let back = Mlp::load_from(&mut BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(m.params(), back.params());
        let mut scratch = crate::ActScratch::for_mlp(&m);
        let (mut y, mut y_back) = ([0.0; 2], [0.0; 2]);
        m.forward_into(&[0.1, 0.2, 0.3], &mut y, &mut scratch);
        back.forward_into(&[0.1, 0.2, 0.3], &mut y_back, &mut scratch);
        assert_eq!(y, y_back);
    }

    #[test]
    fn mlp_rejects_truncated_input() {
        let mut rng = StdRng::seed_from_u64(4);
        let m = Mlp::new(&[2, 2], Activation::Linear, &mut rng);
        let mut buf = Vec::new();
        m.save_to(&mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(Mlp::load_from(&mut BufReader::new(buf.as_slice())).is_err());
    }

    #[test]
    fn mlp_rejects_garbage_header() {
        let data = b"nonsense tanh 2 2\n";
        assert!(Mlp::load_from(&mut BufReader::new(&data[..])).is_err());
    }

    #[test]
    fn td3_roundtrips_policy() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut agent = Td3Agent::new(Td3Config::new(4, 1), &mut rng);
        // A little training so the networks differ from initialization.
        let mut ws = crate::TrainWorkspace::new(agent.config(), 1);
        ws.push(&crate::Transition {
            state: vec![0.1, -0.2, 0.3, 0.0],
            action: vec![0.5],
            reward: 1.0,
            next_state: vec![0.0, 0.0, 0.0, 0.1],
            done: false,
        });
        for _ in 0..5 {
            agent.train_batched(&mut ws, &mut rng);
        }
        let mut buf = Vec::new();
        agent.save_to(&mut buf).unwrap();
        let back =
            Td3Agent::load_from(Td3Config::new(4, 1), &mut BufReader::new(buf.as_slice())).unwrap();
        let s = [0.3, 0.1, -0.5, 0.2];
        let mut scratch = agent.act_scratch();
        let (mut a, mut a_back) = ([0.0], [0.0]);
        agent.act_into(&s, &mut a, &mut scratch);
        back.act_into(&s, &mut a_back, &mut scratch);
        assert_eq!(a, a_back);
        assert_eq!(agent.train_steps(), back.train_steps());
    }

    #[test]
    fn td3_rejects_dimension_mismatch() {
        let mut rng = StdRng::seed_from_u64(9);
        let agent = Td3Agent::new(Td3Config::new(4, 1), &mut rng);
        let mut buf = Vec::new();
        agent.save_to(&mut buf).unwrap();
        assert!(
            Td3Agent::load_from(Td3Config::new(5, 1), &mut BufReader::new(buf.as_slice())).is_err()
        );
    }
}
