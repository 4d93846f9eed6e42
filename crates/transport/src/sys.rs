//! The two Linux facilities the event loop needs and `std` does not
//! wrap — epoll and eventfd — declared against the C library `std`
//! already links, behind a safe wrapper. This is the transport's only
//! `unsafe` code.
//!
//! `epoll_pwait2` takes its timeout as a `timespec`, so a loop waiting
//! for a timer keeps sub-millisecond resolution (plain `epoll_wait`
//! rounds up to whole milliseconds). It needs glibc 2.35 and Linux 5.11.

use std::fs::File;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::os::raw::{c_int, c_long, c_uint, c_void};
use std::ptr;
use std::time::Duration;

/// Readable (or, on a listener, a connection is waiting).
pub const EPOLLIN: u32 = 0x001;
/// Writable.
pub const EPOLLOUT: u32 = 0x004;
/// Error condition; always reported.
pub const EPOLLERR: u32 = 0x008;
/// Hang-up; always reported.
pub const EPOLLHUP: u32 = 0x010;
/// The peer closed its writing half.
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CLOEXEC: c_int = 0o2_000_000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EFD_CLOEXEC: c_int = 0o2_000_000;
const EFD_NONBLOCK: c_int = 0o4_000;

/// `struct epoll_event`: packed on x86-64 only, as the kernel lays it out.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

/// `struct timespec` (`time_t` and the nanoseconds are both `long` on
/// glibc's Linux targets).
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_pwait2(
        epfd: c_int,
        events: *mut EpollEvent,
        maxevents: c_int,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
}

/// Wraps a descriptor a system call just returned, or its error.
fn owned(fd: c_int) -> io::Result<OwnedFd> {
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: `fd` is non-negative, so the call that returned it created
    // a new descriptor that nothing else owns; the `OwnedFd` closes it
    // exactly once.
    Ok(unsafe { OwnedFd::from_raw_fd(fd) })
}

fn check(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// An epoll instance in level-triggered mode. Registration takes a
/// descriptor and a caller-chosen token; waits report `(token, events)`.
/// Every method may be called from any thread.
pub struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    /// Creates an epoll instance.
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: plain system call with a valid flag; no pointers.
        let fd = owned(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Epoll { fd })
    }

    /// Watches `fd` for `events`, reported with `token`.
    pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut event = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `event` is a live, properly laid-out `epoll_event` for
        // the duration of the call; the kernel only reads it. A bad `fd`
        // is reported as an error, not undefined behaviour.
        check(unsafe { epoll_ctl(self.fd.as_raw_fd(), EPOLL_CTL_ADD, fd, &mut event) })?;
        Ok(())
    }

    /// Stops watching `fd`. Must precede closing a socket whose
    /// descriptor has a duplicate elsewhere: epoll tracks the open file,
    /// not the number, so the watch would outlive the close.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        let mut unused = EpollEvent { events: 0, data: 0 };
        // SAFETY: as in `add`; the kernel ignores the event for DEL, but
        // the pointer is valid anyway.
        check(unsafe { epoll_ctl(self.fd.as_raw_fd(), EPOLL_CTL_DEL, fd, &mut unused) })?;
        Ok(())
    }

    /// Waits up to `timeout` and fills `events`. A signal interrupting
    /// the wait reads as no events.
    pub fn wait(&self, events: &mut Events, timeout: Duration) -> io::Result<()> {
        let timespec = Timespec {
            tv_sec: c_long::try_from(timeout.as_secs()).unwrap_or(c_long::MAX),
            tv_nsec: timeout.subsec_nanos() as c_long,
        };
        let capacity = c_int::try_from(events.buf.len()).unwrap_or(c_int::MAX);
        // SAFETY: `events.buf` holds `capacity` initialized `epoll_event`s
        // that the kernel may overwrite; `timespec` is alive until the
        // call returns and the kernel only reads it; a null sigmask leaves
        // the signal mask alone.
        let ret = unsafe {
            epoll_pwait2(
                self.fd.as_raw_fd(),
                events.buf.as_mut_ptr(),
                capacity,
                &timespec,
                ptr::null(),
            )
        };
        match check(ret) {
            Ok(n) => {
                events.len = n as usize;
                Ok(())
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                events.len = 0;
                Ok(())
            }
            Err(e) => {
                events.len = 0;
                Err(e)
            }
        }
    }
}

/// The buffer one [`Epoll::wait`] fills.
pub struct Events {
    buf: Vec<EpollEvent>,
    len: usize,
}

impl Events {
    /// Room for `capacity` events per wait.
    pub fn with_capacity(capacity: usize) -> Events {
        Events {
            buf: vec![EpollEvent { events: 0, data: 0 }; capacity.max(1)],
            len: 0,
        }
    }

    /// Events the last wait reported.
    pub fn len(&self) -> usize {
        self.len
    }

    /// The `i`-th reported `(token, events)`.
    pub fn get(&self, i: usize) -> (u64, u32) {
        let event = self.buf[..self.len][i];
        (event.data, event.events)
    }
}

/// A non-blocking eventfd: a counter other threads bump to make the
/// loop's wait return.
pub struct EventFd {
    file: File,
}

impl EventFd {
    /// Creates an eventfd with a zero count.
    pub fn new() -> io::Result<EventFd> {
        // SAFETY: plain system call with valid flags; no pointers.
        let fd = owned(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(EventFd {
            file: File::from(fd),
        })
    }

    /// The descriptor to register with [`Epoll::add`].
    pub fn raw(&self) -> RawFd {
        self.file.as_raw_fd()
    }

    /// Makes the descriptor readable. A saturated counter (`WouldBlock`)
    /// is already readable, so errors need no handling.
    pub fn notify(&self) {
        let _ = (&self.file).write(&1u64.to_ne_bytes());
    }

    /// Resets the counter to zero.
    pub fn reset(&self) {
        let mut count = [0u8; 8];
        let _ = (&self.file).read(&mut count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn eventfd_wakes_a_wait_and_resets() {
        let epoll = Epoll::new().unwrap();
        let wake = EventFd::new().unwrap();
        epoll.add(wake.raw(), EPOLLIN, 42).unwrap();
        let mut events = Events::with_capacity(4);
        epoll.wait(&mut events, Duration::from_millis(1)).unwrap();
        assert_eq!(events.len(), 0, "nothing ready yet");
        wake.notify();
        wake.notify();
        epoll.wait(&mut events, Duration::from_secs(5)).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events.get(0).0, 42);
        assert_ne!(events.get(0).1 & EPOLLIN, 0);
        wake.reset();
        epoll.wait(&mut events, Duration::ZERO).unwrap();
        assert_eq!(events.len(), 0, "one reset clears every notify");
        epoll.delete(wake.raw()).unwrap();
    }

    #[test]
    fn sub_millisecond_timeouts_are_honoured() {
        let epoll = Epoll::new().unwrap();
        let mut events = Events::with_capacity(1);
        // A 100 µs wait rounded up to whole milliseconds would never
        // return in under one; the fastest of twenty must.
        let fastest = (0..20)
            .map(|_| {
                let started = Instant::now();
                epoll.wait(&mut events, Duration::from_micros(100)).unwrap();
                started.elapsed()
            })
            .min()
            .unwrap();
        assert!(fastest < Duration::from_micros(900), "{fastest:?}");
    }
}
