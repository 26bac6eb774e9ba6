//! The served side of the benchmark: a real `ltgs serve` child process,
//! one TCP connection, a closed-loop and an open-loop driver.

use crate::stats::Samples;
use crate::workloads::script::Op;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Restricts the calling thread — and every thread and process it
/// starts from here on — to one CPU. On the 2-vCPU box this benchmark
/// was sized on, where the scheduler places a client thread and the
/// server's threads decides whether a round trip costs 17 us or 99 us;
/// left to itself it picks differently from run to run. Best effort:
/// returns false where the call is refused or does not exist.
pub fn pin_to_cpu(cpu: usize) -> bool {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        }
        let mut mask = [0u64; 16];
        if cpu >= 64 * mask.len() {
            return false;
        }
        mask[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `mask` is a live array of the size passed with it,
        // which the call only reads; pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = cpu;
        false
    }
}

/// The CPU the measured work runs on: the last one, away from CPU 0
/// where the rest of the machine's work tends to land. Counted once,
/// on the first call: `available_parallelism` counts the affinity mask,
/// so after `pin_to_cpu` it would say 1.
pub fn measured_cpu() -> usize {
    static CPU: OnceLock<usize> = OnceLock::new();
    *CPU.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()) - 1)
}

/// A running `ltgs serve`, killed and reaped on drop.
pub struct ServeChild {
    child: Child,
    pub addr: String,
    /// Spawn → readiness line.
    pub boot: Duration,
}

impl ServeChild {
    /// Spawns `<bin> serve --port 0 --seed 1 <extra> <program>` and
    /// waits for the readiness line, which names the bound address.
    /// The server's stderr goes to `log`.
    pub fn spawn(
        bin: &Path,
        program: &Path,
        extra: &[&str],
        log: &Path,
    ) -> Result<ServeChild, String> {
        let stderr = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(log)
            .map_err(|e| format!("open {}: {e}", log.display()))?;
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .args(["serve", "--port", "0", "--seed", "1"])
            .args(extra)
            .arg(program)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut line = String::new();
        let read = BufReader::new(child.stdout.take().expect("piped")).read_line(&mut line);
        let boot = t0.elapsed();
        let addr = line.trim().rsplit_once(" on ").map(|(_, a)| a.to_string());
        match (read, addr) {
            (Ok(n), Some(addr)) if n > 0 => Ok(ServeChild { child, addr, boot }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "ltgs serve printed no readiness line (see {})",
                    log.display()
                ))
            }
        }
    }

    /// Peak resident set of the server so far, from `/proc`.
    pub fn peak_rss_mb(&self) -> f64 {
        vm_hwm_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// `kill -9`: no shutdown checkpoint, no WAL sync.
    pub fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServeChild {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `VmHWM` of a `/proc/<pid>/status` file in MB (0 when unreadable).
pub fn vm_hwm_mb(status_path: &str) -> f64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One complete wire response: the head line and its payload lines.
#[derive(Clone, Debug, Default)]
pub struct Reply {
    pub head: String,
    pub payload: Vec<String>,
}

impl Reply {
    pub fn is_ok(&self) -> bool {
        self.head.starts_with("OK")
    }

    /// The value of a `<key> <value>` payload line (`STATS`).
    pub fn stat(&self, key: &str) -> Option<u64> {
        self.payload.iter().find_map(|l| {
            l.strip_prefix(key)
                .and_then(|r| r.strip_prefix(' '))
                .and_then(|v| v.parse().ok())
        })
    }
}

fn read_reply(reader: &mut impl BufRead) -> std::io::Result<Reply> {
    let mut head = String::new();
    if reader.read_line(&mut head)? == 0 {
        return Err(std::io::ErrorKind::UnexpectedEof.into());
    }
    let head = head.trim_end().to_string();
    let mut payload = Vec::new();
    if let Some(n) = head
        .strip_prefix("OK ")
        .and_then(|r| r.parse::<usize>().ok())
    {
        for _ in 0..n {
            let mut l = String::new();
            if reader.read_line(&mut l)? == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            payload.push(l.trim_end().to_string());
        }
    }
    Ok(Reply { head, payload })
}

/// What one pass recorded about one op.
pub struct Sample {
    pub latency_ns: u64,
    pub reply: Reply,
}

/// The single client connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    pub fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Client {
            reader,
            writer: stream,
        })
    }

    /// One request, one reply.
    pub fn request(&mut self, line: &str) -> Result<Reply, String> {
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        self.writer
            .write_all(framed.as_bytes())
            .map_err(|e| format!("send {line:?}: {e}"))?;
        read_reply(&mut self.reader).map_err(|e| format!("reply to {line:?}: {e}"))
    }

    /// Closed loop: each op is sent when the previous reply is in.
    /// Latency runs from the send to the last response byte.
    pub fn closed_loop(&mut self, ops: &[Op]) -> Result<Vec<Sample>, String> {
        let mut out = Vec::with_capacity(ops.len());
        for op in ops {
            let t0 = Instant::now();
            let reply = self.request(&op.line)?;
            out.push(Sample {
                latency_ns: t0.elapsed().as_nanos() as u64,
                reply,
            });
        }
        Ok(out)
    }

    /// Open loop at `rate` ops/s: op `i` is due at `i / rate` whatever
    /// the server is doing. This thread generates and sends (sleeping,
    /// then spinning the last `spin` before each due time — only worth
    /// it on a CPU the server does not need); a reader
    /// thread takes the replies off the same connection in order.
    /// Latency runs from the *due* time to the last response byte, so
    /// the wait a stall imposes on later ops is counted. Also returns
    /// how late each send left.
    pub fn open_loop(
        &mut self,
        ops: &[Op],
        rate: f64,
        spin: Duration,
    ) -> Result<(Vec<Sample>, Samples), String> {
        let start = Instant::now() + Duration::from_millis(5);
        let due = |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
        let reader = &mut self.reader;
        let writer = &mut self.writer;
        let n = ops.len();
        std::thread::scope(|scope| {
            let replies = scope.spawn(move || -> Result<Vec<Sample>, String> {
                let mut out = Vec::with_capacity(n);
                for i in 0..n {
                    let reply = read_reply(reader).map_err(|e| format!("reply {i}: {e}"))?;
                    out.push(Sample {
                        latency_ns: Instant::now().saturating_duration_since(due(i)).as_nanos()
                            as u64,
                        reply,
                    });
                }
                Ok(out)
            });
            let mut late = Samples::new();
            let mut framed = String::new();
            for (i, op) in ops.iter().enumerate() {
                framed.clear();
                framed.push_str(&op.line);
                framed.push('\n');
                let due = due(i);
                let now = Instant::now();
                if due > now + spin {
                    std::thread::sleep(due - now - spin);
                }
                while Instant::now() < due {
                    std::hint::spin_loop();
                }
                let sent = writer.write_all(framed.as_bytes());
                late.push(Instant::now().saturating_duration_since(due).as_nanos() as u64);
                if let Err(e) = sent {
                    // The reader fails too once the socket is gone; its
                    // error is the one worth reporting.
                    let _ = writer.shutdown(std::net::Shutdown::Both);
                    return Err(match replies.join().expect("reader thread") {
                        Err(r) => r,
                        Ok(_) => format!("send {i}: {e}"),
                    });
                }
            }
            let samples = replies.join().expect("reader thread")?;
            Ok((samples, late))
        })
    }
}

/// The latencies of the ops `keep` selects.
pub fn latencies(ops: &[Op], latency_ns: &[u64], keep: impl Fn(&Op) -> bool) -> Samples {
    let mut out = Samples::new();
    for (op, &ns) in ops.iter().zip(latency_ns) {
        if keep(op) {
            out.push(ns);
        }
    }
    out
}
