//! The binary arithmetic coder on a thread of its own: the second stage of
//! the streamed encoder and of a lone grid tile worker.
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
//! One thread codes any number of streams in turn, such as the tiles of a
//! grid. [`CoderThread::end_stream`] ships a stream's last words with the
//! order to end it: the coder flushes, answers with the stream's last
//! bytes and exact payload bits, and starts the next stream. The caller
//! does not wait for that answer; it models the next stream meanwhile and
//! collects the ended ones, in order, with [`CoderThread::take_stream`].
//! The thread ends when its job queue closes.
//!
//! Memory is constant: [`IN_FLIGHT`] chunks queued or being coded plus the
//! one the model fills, [`CHUNK`] words of 8 bytes each (640 KiB in all),
//! and the coder's 4 KiB output buffer.

use cbic_arith::{BinaryEncoder, DecisionEncoder};
use cbic_bitio::{BitSink, StreamBitWriter};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::{self, Write};
use std::rc::Rc;
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::thread::{self, JoinHandle};

/// Coded decisions per chunk. Every chunk costs a cross-thread wake-up,
/// so chunks stay large: on a 2-vCPU host, `cbic compress` of a 2048²
/// image took about 1.2× as long with 2 Ki or 4 Ki chunks, and 64 Ki
/// chunks gained nothing.
pub(crate) const CHUNK: usize = 16 * 1024;

/// Jobs queued for or held by the coder thread before the model waits
/// for one to come back.
const IN_FLIGHT: usize = 4;

/// Whether a caller with the CPUs to itself, coding on `workers` workers
/// (1 for the streamed flat encoder), should hand the binary coder to a
/// [`CoderThread`]: only when exactly one worker codes and more than one
/// CPU is available. Several workers, or a server's worker pool, already
/// keep the CPUs busy. On one CPU the two stages could only take turns,
/// and the hand-off adds work: pinned to one CPU of a 2-vCPU host, a 2048²
/// encode took 1.15× (streamed) and 1.10× (256² tiles) as long with it.
pub(crate) fn use_coder_thread(workers: usize) -> bool {
    workers == 1 && thread::available_parallelism().is_ok_and(|n| n.get() > 1)
}

/// Work for the coder thread: code `words` in order, then, if `end`, end
/// the stream.
struct Job {
    words: Vec<u64>,
    /// Ends the stream after `words`: flush the coder, answer with the
    /// stream's last bytes and exact payload bits, and start the next
    /// stream.
    end: bool,
}

/// The coder thread's answer to one [`Job`].
struct Reply {
    /// The job's words, emptied for reuse.
    chunk: Vec<u64>,
    /// Output bytes that became final since the previous reply.
    bytes: Vec<u8>,
    /// If the job ended the stream, its exact payload bits, the flush tail
    /// included.
    ended: Option<u64>,
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
    /// Output bytes of the oldest stream the coder has not ended, back
    /// from the coder and not yet taken.
    bytes: Vec<u8>,
    /// Streams the coder has ended, oldest first: the bytes not yet taken
    /// and the exact payload bits.
    ended: VecDeque<(Vec<u8>, u64)>,
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
            ended: VecDeque::new(),
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

    /// Output bytes of the oldest open stream, back from the coder and not
    /// yet taken; the caller writes them out and clears the buffer.
    pub(crate) fn bytes(&mut self) -> &mut Vec<u8> {
        &mut self.bytes
    }

    /// Ends the stream the model is coding. Does not wait for the coder:
    /// the decisions encoded from now on open the next stream.
    pub(crate) fn end_stream(&mut self) {
        self.ship(true);
    }

    /// Waits for the oldest ended stream not taken yet and returns its
    /// bytes not taken through [`Self::bytes`] and its exact payload bits,
    /// the flush tail included.
    ///
    /// # Panics
    ///
    /// Panics if every ended stream was taken.
    pub(crate) fn take_stream(&mut self) -> (Vec<u8>, u64) {
        loop {
            if let Some(stream) = self.ended.pop_front() {
                return stream;
            }
            assert!(self.in_flight > 0, "every ended stream was taken");
            self.receive();
        }
    }

    /// Closes the job queue and joins the coder thread, raising a panic
    /// there again on the caller's thread.
    pub(crate) fn join(mut self) {
        if let Some(Err(panic)) = self.stop() {
            std::panic::resume_unwind(panic);
        }
    }

    /// Closes the job queue and joins the coder thread, which first codes
    /// what is queued. Returns the join result, or `None` if the thread
    /// was already joined.
    fn stop(&mut self) -> Option<thread::Result<()>> {
        self.jobs = None;
        self.handle.take().map(JoinHandle::join)
    }

    /// Ships the filled chunk, and the order to end the stream after it if
    /// `end`, first waiting for a job to come back if [`IN_FLIGHT`] are
    /// out.
    #[cold]
    #[inline(never)]
    fn ship(&mut self, end: bool) {
        while self.in_flight == IN_FLIGHT {
            self.receive();
        }
        let next = self.free.pop().unwrap_or_else(|| Vec::with_capacity(CHUNK));
        let words = std::mem::replace(&mut self.chunk, next);
        self.shipped += words.len() as u64;
        let jobs = self
            .jobs
            .as_ref()
            .expect("no job is sent after the thread stopped");
        if jobs.send(Job { words, end }).is_err() {
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
        self.free.push(reply.chunk);
        self.bytes.extend_from_slice(&reply.bytes);
        if let Some(bits) = reply.ended {
            self.ended
                .push_back((std::mem::take(&mut self.bytes), bits));
        }
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
                self.ship(false);
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

/// The coder thread's loop: codes each job as it arrives and answers it,
/// ending streams where the jobs say. Ends when the caller's side hangs
/// up.
fn code(jobs: &Receiver<Job>, replies: &Sender<Reply>) {
    let outbox = Rc::new(RefCell::new(Vec::new()));
    let open = || BinaryEncoder::new(StreamBitWriter::wrap(Outbox(Rc::clone(&outbox))));
    let mut enc = open();
    while let Ok(Job { mut words, end }) = jobs.recv() {
        for &word in &words {
            let field = |shift: u32| (word >> shift) as u32 & 0x1_FFFF;
            enc.encode_coded(word >> 34 != 0, field(17), field(0));
        }
        words.clear();
        let ended = end.then(|| {
            let writer = std::mem::replace(&mut enc, open()).finish();
            let bits = writer.bits_written();
            writer.finish().expect("an in-memory outbox cannot fail");
            bits
        });
        let reply = Reply {
            chunk: words,
            bytes: outbox.take(),
            ended,
        };
        if replies.send(reply).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbic_bitio::BitWriter;

    #[test]
    #[should_panic(expected = "invalid total 70000")]
    fn a_coder_thread_panic_is_raised_again_on_the_callers_thread() {
        let mut coder = CoderThread::spawn().expect("a thread starts");
        // Packs, but beyond the coder's 2^16 total: only the coder thread
        // rejects it.
        coder.encode(false, 1, 70_000);
        coder.end_stream();
        coder.take_stream();
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
        coder.ship(false);
        drop(coder);
    }

    /// `n` reproducible decisions, of which `coded` are coded and the rest
    /// deterministic.
    fn random_decisions(n: usize, coded: usize, seed: u64) -> Vec<(bool, u32, u32)> {
        let mut x = seed;
        (0..n)
            .map(|i| {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                let total = 2 + (x >> 40) as u32 % 4000;
                let bit = (x >> 20) & 1 == 1;
                match i < coded {
                    true => (bit, 1 + (x >> 24) as u32 % (total - 1), total),
                    false => (bit, total * u32::from(!bit), total),
                }
            })
            .collect()
    }

    /// What an inline coder writes for `stream`: its bytes and exact bits.
    fn inline(stream: &[(bool, u32, u32)]) -> (Vec<u8>, u64) {
        let mut enc = BinaryEncoder::new(BitWriter::new());
        for &(bit, c0, total) in stream {
            enc.encode(bit, c0, total);
        }
        let writer = enc.finish();
        let bits = writer.bits_written();
        (writer.into_bytes(), bits)
    }

    #[test]
    fn streams_ended_back_to_back_match_inline_coders() {
        let streams = [
            random_decisions(1, 1, 1),
            random_decisions(0, 0, 2),
            // Ends exactly on a chunk boundary: its last word ships a full
            // chunk, and the end ships an empty one.
            random_decisions(CHUNK, CHUNK, 3),
            random_decisions(2 * CHUNK + 40, 2 * CHUNK, 4),
            random_decisions(5, 0, 5),
            random_decisions(1, 1, 6),
            random_decisions(9 * CHUNK + 7, 9 * CHUNK + 7, 7),
            random_decisions(3, 2, 8),
        ];
        let mut coder = CoderThread::spawn().expect("a thread starts");
        let mut taken = Vec::new();
        for (k, stream) in streams.iter().enumerate() {
            for &(bit, c0, total) in stream {
                coder.encode(bit, c0, total);
            }
            coder.end_stream();
            // Take some streams while later ones are still being coded.
            if k == 3 {
                taken.push(coder.take_stream());
            }
        }
        while taken.len() < streams.len() {
            taken.push(coder.take_stream());
        }
        coder.join();
        for (k, (stream, got)) in streams.iter().zip(&taken).enumerate() {
            assert!(*got == inline(stream), "stream {k}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid total 70000")]
    fn a_panic_in_the_second_stream_is_raised_again_on_the_callers_thread() {
        let mut coder = CoderThread::spawn().expect("a thread starts");
        let first = random_decisions(100, 100, 9);
        for &(bit, c0, total) in &first {
            coder.encode(bit, c0, total);
        }
        coder.end_stream();
        coder.encode(false, 1, 70_000);
        coder.end_stream();
        assert!(coder.take_stream() == inline(&first), "the first stream");
        coder.take_stream();
    }

    #[test]
    fn dropping_with_a_stream_open_joins_the_thread() {
        let mut coder = CoderThread::spawn().expect("a thread starts");
        for &(bit, c0, total) in &random_decisions(100, 100, 10) {
            coder.encode(bit, c0, total);
        }
        coder.end_stream();
        for &(bit, c0, total) in &random_decisions(3 * CHUNK + 1, 3 * CHUNK + 1, 11) {
            coder.encode(bit, c0, total);
        }
        assert!(coder.in_flight > 0, "chunks were shipped");
        // Keep the replies: the coder thread's end hangs them up.
        let replies = std::mem::replace(&mut coder.replies, mpsc::channel().1);
        drop(coder);
        let hung_up = loop {
            if let Err(e) = replies.try_recv() {
                break e;
            }
        };
        assert_eq!(hung_up, TryRecvError::Disconnected, "the thread has ended");
    }
}
