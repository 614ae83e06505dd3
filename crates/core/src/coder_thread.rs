//! The streamed encoder's second stage: the binary arithmetic coder on a
//! thread of its own.
//!
//! The paper runs its two modelling lines beside the binary arithmetic
//! coder, which retires one decision per clock (Sections III–IV). On a CPU
//! the same cut gives two stages that share only the stream of coded
//! decisions. The model and the estimator trees run on the caller's
//! thread into a [`CoderThread`], a [`DecisionEncoder`] that packs each
//! coded decision into one `bit<<34 | c0<<17 | total` word and only counts
//! the deterministic ones. Full chunks of words go to one coder thread,
//! which replays them through [`BinaryEncoder::encode_coded`] into a
//! [`StreamBitWriter`] and sends each chunk back, emptied, with the output
//! bytes that became final meanwhile. The coder sees exactly the decisions
//! an inline coder would, so the bytes are identical.
//!
//! Memory is constant: [`IN_FLIGHT`] chunks queued or being coded plus the
//! one the model fills, [`CHUNK`] words of 8 bytes each (640 KiB in all),
//! and the coder's 4 KiB output buffer.

use cbic_arith::{BinaryEncoder, DecisionEncoder};
use cbic_bitio::{BitSink, StreamBitWriter};
use std::cell::RefCell;
use std::io::{self, Write};
use std::rc::Rc;
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::thread::{self, JoinHandle};

/// Coded decisions per chunk. Every chunk costs a cross-thread wake-up,
/// so chunks stay large: on a 2-vCPU host, `cbic compress` of a 2048²
/// image took about 1.2× as long with 2 Ki or 4 Ki chunks, and 64 Ki
/// chunks gained nothing.
pub(crate) const CHUNK: usize = 16 * 1024;

/// Chunks queued for or held by the coder thread before the model waits
/// for one to come back.
const IN_FLIGHT: usize = 4;

/// Work for the coder thread.
enum Job {
    /// Code these packed decisions, in order.
    Code(Vec<u64>),
    /// The stream is complete: flush the coder.
    Finish,
}

/// The coder thread's answer to one [`Job`].
struct Reply {
    /// The coded chunk, emptied for reuse; `None` after [`Job::Finish`].
    chunk: Option<Vec<u64>>,
    /// Output bytes that became final since the previous reply.
    bytes: Vec<u8>,
    /// Payload bits written so far; after [`Job::Finish`], the exact
    /// total, the flush tail included.
    bits: u64,
}

/// The caller's side of the coder thread: packs the model's decisions
/// into chunks, ships them, and gathers the bytes and bit counts that come
/// back.
#[derive(Debug)]
pub(crate) struct CoderThread {
    /// Packed decisions not yet shipped.
    chunk: Vec<u64>,
    /// Emptied chunks back from the coder.
    free: Vec<Vec<u64>>,
    decisions: u64,
    /// Coded decisions shipped before `chunk`.
    shipped: u64,
    /// Jobs sent and not yet answered.
    in_flight: usize,
    /// Output bytes back from the coder, not yet taken.
    bytes: Vec<u8>,
    /// Payload bits as of the last reply.
    bits: u64,
    /// `None` once dropped, which ends the coder's loop.
    jobs: Option<Sender<Job>>,
    replies: Receiver<Reply>,
    /// `None` once joined.
    handle: Option<JoinHandle<()>>,
}

impl CoderThread {
    /// Starts the coder thread, or returns `None` when the platform cannot
    /// start one.
    pub(crate) fn spawn() -> Option<Self> {
        let (jobs, queue) = mpsc::channel();
        let (answer, replies) = mpsc::channel();
        let handle = thread::Builder::new()
            .name("cbic-coder".into())
            .spawn(move || code(&queue, &answer))
            .ok()?;
        Some(Self {
            chunk: Vec::with_capacity(CHUNK),
            free: Vec::new(),
            decisions: 0,
            shipped: 0,
            in_flight: 0,
            bytes: Vec::new(),
            bits: 0,
            jobs: Some(jobs),
            replies,
            handle: Some(handle),
        })
    }

    /// Takes in every reply that has already arrived, without waiting.
    pub(crate) fn poll(&mut self) {
        loop {
            match self.replies.try_recv() {
                Ok(reply) => self.take_in(reply),
                Err(TryRecvError::Empty) => return,
                Err(TryRecvError::Disconnected) => self.rethrow(),
            }
        }
    }

    /// Output bytes back from the coder and not yet taken; the caller
    /// writes them out and clears the buffer.
    pub(crate) fn bytes(&mut self) -> &mut Vec<u8> {
        &mut self.bytes
    }

    /// Ships what the model has packed and waits until the coder has coded
    /// all of it, so the returned payload bit count is exact.
    pub(crate) fn sync(&mut self) -> u64 {
        if !self.chunk.is_empty() {
            self.ship();
        }
        while self.in_flight > 0 {
            self.receive();
        }
        self.bits
    }

    /// Codes what is left, flushes the coder and joins its thread. Returns
    /// the exact payload bits, the flush tail included; the last bytes
    /// are then in [`Self::bytes`].
    pub(crate) fn finish(&mut self) -> u64 {
        self.sync();
        self.send(Job::Finish);
        self.receive();
        if let Some(Err(panic)) = self.stop() {
            std::panic::resume_unwind(panic);
        }
        self.bits
    }

    /// Closes the job queue and joins the coder thread, which first codes
    /// what is queued. Returns the join result, or `None` if the thread
    /// was already joined.
    fn stop(&mut self) -> Option<thread::Result<()>> {
        self.jobs = None;
        self.handle.take().map(JoinHandle::join)
    }

    /// Ships the filled chunk, first waiting for one to come back if
    /// [`IN_FLIGHT`] are out.
    #[cold]
    #[inline(never)]
    fn ship(&mut self) {
        while self.in_flight == IN_FLIGHT {
            self.receive();
        }
        let next = self.free.pop().unwrap_or_else(|| Vec::with_capacity(CHUNK));
        let full = std::mem::replace(&mut self.chunk, next);
        self.shipped += full.len() as u64;
        self.send(Job::Code(full));
    }

    fn send(&mut self, job: Job) {
        let jobs = self
            .jobs
            .as_ref()
            .expect("no job is sent after the thread stopped");
        if jobs.send(job).is_err() {
            self.rethrow();
        }
        self.in_flight += 1;
    }

    /// Waits for the coder's next reply and takes it in.
    fn receive(&mut self) {
        match self.replies.recv() {
            Ok(reply) => self.take_in(reply),
            Err(_) => self.rethrow(),
        }
    }

    fn take_in(&mut self, reply: Reply) {
        self.in_flight -= 1;
        self.bits = reply.bits;
        self.bytes.extend_from_slice(&reply.bytes);
        self.free.extend(reply.chunk);
    }

    /// The coder thread hung up with work outstanding, which only a panic
    /// does: raise that panic again here, on the caller's thread.
    #[cold]
    fn rethrow(&mut self) -> ! {
        match self.stop() {
            Some(Err(panic)) => std::panic::resume_unwind(panic),
            _ => unreachable!("the coder thread ended with work outstanding"),
        }
    }
}

impl DecisionEncoder for CoderThread {
    #[inline]
    fn encode(&mut self, bit: bool, c0: u32, total: u32) {
        // The word's fields hold 17 bits; the coder thread checks the rest
        // of what `BinaryEncoder::encode` checks.
        assert!(total > 0 && total < 1 << 17, "invalid total {total}");
        assert!(c0 <= total, "c0 {c0} exceeds total {total}");
        debug_assert!(
            if bit { c0 < total } else { c0 > 0 },
            "coding a zero-probability decision (bit={bit}, c0={c0}, total={total})"
        );
        self.decisions += 1;
        if c0 != 0 && c0 != total {
            self.chunk
                .push((u64::from(bit) << 34) | (u64::from(c0) << 17) | u64::from(total));
            if self.chunk.len() == CHUNK {
                self.ship();
            }
        }
    }

    #[inline]
    fn decisions(&self) -> u64 {
        self.decisions
    }

    #[inline]
    fn coded_decisions(&self) -> u64 {
        self.shipped + self.chunk.len() as u64
    }

    #[inline]
    fn note_deterministic(&mut self, n: u64) {
        self.decisions += n;
    }
}

impl Drop for CoderThread {
    /// Joins the coder thread so none outlives its encoder. A panic there
    /// is not raised again: a panic in `drop` during unwinding aborts.
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// The coder's byte sink: the bytes gathered here ride back with the next
/// reply.
struct Outbox(Rc<RefCell<Vec<u8>>>);

impl Write for Outbox {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The coder thread's loop: codes each chunk as it arrives and answers
/// it. Ends after [`Job::Finish`], or when the caller's side hangs up.
fn code(jobs: &Receiver<Job>, replies: &Sender<Reply>) {
    let outbox = Rc::new(RefCell::new(Vec::new()));
    let mut enc = BinaryEncoder::new(StreamBitWriter::new(Outbox(Rc::clone(&outbox))));
    while let Ok(job) = jobs.recv() {
        let reply = match job {
            Job::Code(mut chunk) => {
                for &word in &chunk {
                    let field = |shift: u32| (word >> shift) as u32 & 0x1_FFFF;
                    enc.encode_coded(word >> 34 != 0, field(17), field(0));
                }
                chunk.clear();
                Reply {
                    chunk: Some(chunk),
                    bytes: outbox.take(),
                    bits: enc.bits_written(),
                }
            }
            Job::Finish => {
                let writer = enc.finish();
                let bits = writer.bits_written();
                writer.finish().expect("an in-memory outbox cannot fail");
                let _ = replies.send(Reply {
                    chunk: None,
                    bytes: outbox.take(),
                    bits,
                });
                return;
            }
        };
        if replies.send(reply).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "invalid total 70000")]
    fn a_coder_thread_panic_is_raised_again_on_the_callers_thread() {
        let mut coder = CoderThread::spawn().expect("a thread starts");
        // Packs, but beyond the coder's 2^16 total: only the coder thread
        // rejects it.
        coder.encode(false, 1, 70_000);
        coder.sync();
    }

    #[test]
    fn stopping_joins_a_thread_with_work_queued() {
        let mut coder = CoderThread::spawn().expect("a thread starts");
        for i in 0..3 * CHUNK as u32 {
            coder.encode(i % 3 == 0, 1 + i % 7, 8);
        }
        assert!(coder.in_flight > 0, "chunks were shipped");
        assert!(matches!(coder.stop(), Some(Ok(()))));
        assert!(coder.stop().is_none(), "joined once");
    }

    #[test]
    fn dropping_after_a_coder_panic_does_not_panic() {
        let mut coder = CoderThread::spawn().expect("a thread starts");
        coder.encode(false, 1, 70_000);
        coder.ship();
        drop(coder);
    }
}
