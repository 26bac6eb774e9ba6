//! Spans around the calls the benchmark makes into each layer.
//!
//! Spans are recorded in memory — name, start, end, the span that
//! caused it, the request they belong to — and written out as JSON
//! lines when the run ends. They are taken from the benchmark's side of
//! each public function; spans inside the program are a later change.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub request_id: u64,
    /// A re-enactment of work that already ran inside its parent (the
    /// parent's interval does not contain it).
    pub shadow: bool,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    request_id: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: true,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request_id: 0,
        }
    }

    /// A tracer that records nothing: the untraced run goes through
    /// the same code and pays one branch per span.
    pub fn disabled() -> Tracer {
        Tracer {
            on: false,
            ..Tracer::new()
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Spans opened from here on belong to request `id`.
    pub fn request(&mut self, id: u64) {
        self.request_id = id;
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> u32 {
        self.open(name, false)
    }

    /// Opens a shadow span: its parent is the span `parent`, which has
    /// already closed.
    pub fn enter_shadow(&mut self, name: &'static str, parent: u32) -> u32 {
        let id = self.open(name, true);
        if self.on {
            self.spans[id as usize].parent = Some(parent);
        }
        id
    }

    fn open(&mut self, name: &'static str, shadow: bool) -> u32 {
        if !self.on {
            return u32::MAX;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            request_id: self.request_id,
            shadow,
        });
        self.stack.push(id);
        id
    }

    /// Closes span `id` (the innermost open one) and returns how long
    /// it ran, in nanoseconds.
    pub fn exit(&mut self, id: u32) -> u64 {
        if !self.on {
            return 0;
        }
        let end = self.now();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        let span = &mut self.spans[id as usize];
        span.end_ns = end;
        end - span.start_ns
    }

    /// Total nanoseconds of all spans called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .sum()
    }

    /// Writes the spans as JSON lines.
    pub fn flush(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"request_id\": {}, \"shadow\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request_id, s.shadow
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_shadows_hang_off_closed_parents() {
        let mut t = Tracer::new();
        t.request(7);
        let outer = t.enter("outer");
        let inner = t.enter("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(inner);
        t.exit(outer);
        let shadow = t.enter_shadow("shadow", outer);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(shadow);

        assert_eq!(t.spans[inner as usize].parent, Some(outer));
        assert_eq!(t.spans[shadow as usize].parent, Some(outer));
        assert!(t.spans.iter().all(|s| s.request_id == 7));
        assert!(t.spans[outer as usize].ns() >= t.spans[inner as usize].ns());
        assert_eq!(t.total_ns("inner"), t.spans[inner as usize].ns());
        assert!(t.spans[shadow as usize].shadow && !t.spans[inner as usize].shadow);
        assert!(t.spans[shadow as usize].start_ns >= t.spans[outer as usize].end_ns);
    }
}
