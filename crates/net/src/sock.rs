//! TCP / Unix-domain socket primitives shared by every live-mode
//! driver (moved here from `qos-manager::transport` so the reactor and
//! the blocking driver agree on one address/stream surface).

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::Duration;

/// Address of a socket-mode manager.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SockAddr {
    /// TCP, e.g. `127.0.0.1:7401`.
    Tcp(String),
    /// Unix-domain socket path.
    Uds(PathBuf),
}

impl std::fmt::Display for SockAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SockAddr::Tcp(a) => write!(f, "tcp:{a}"),
            SockAddr::Uds(p) => write!(f, "uds:{}", p.display()),
        }
    }
}

/// A connected stream of either flavour.
#[derive(Debug)]
pub enum SockStream {
    /// TCP connection.
    Tcp(TcpStream),
    /// Unix-domain connection.
    Uds(UnixStream),
}

impl SockStream {
    /// Connect to a manager.
    pub fn connect(addr: &SockAddr) -> io::Result<SockStream> {
        match addr {
            SockAddr::Tcp(a) => TcpStream::connect(a.as_str()).map(SockStream::Tcp),
            SockAddr::Uds(p) => UnixStream::connect(p).map(SockStream::Uds),
        }
    }

    /// Clone the handle (independent read/write positions on the same
    /// connection).
    pub fn try_clone(&self) -> io::Result<SockStream> {
        match self {
            SockStream::Tcp(s) => s.try_clone().map(SockStream::Tcp),
            SockStream::Uds(s) => s.try_clone().map(SockStream::Uds),
        }
    }

    /// Bound blocking reads.
    pub fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            SockStream::Tcp(s) => s.set_read_timeout(t),
            SockStream::Uds(s) => s.set_read_timeout(t),
        }
    }

    /// Toggle non-blocking mode (the reactor drives every peer
    /// non-blocking; the dialing side stays blocking).
    pub fn set_nonblocking(&self, on: bool) -> io::Result<()> {
        match self {
            SockStream::Tcp(s) => s.set_nonblocking(on),
            SockStream::Uds(s) => s.set_nonblocking(on),
        }
    }

    /// Close both directions.
    pub fn shutdown(&self) {
        match self {
            SockStream::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            SockStream::Uds(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }
}

impl AsRawFd for SockStream {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            SockStream::Tcp(s) => s.as_raw_fd(),
            SockStream::Uds(s) => s.as_raw_fd(),
        }
    }
}

impl Read for SockStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            SockStream::Tcp(s) => s.read(buf),
            SockStream::Uds(s) => s.read(buf),
        }
    }
}

impl Write for SockStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            SockStream::Tcp(s) => s.write(buf),
            SockStream::Uds(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            SockStream::Tcp(s) => s.flush(),
            SockStream::Uds(s) => s.flush(),
        }
    }
}

/// A listening socket of either flavour.
#[derive(Debug)]
pub enum SockListener {
    /// TCP listener.
    Tcp(TcpListener),
    /// Unix-domain listener.
    Uds(UnixListener),
}

impl SockListener {
    /// Bind. For UDS, a stale socket file from a crashed previous run is
    /// removed first (the standard UDS idiom).
    pub fn bind(addr: &SockAddr) -> io::Result<SockListener> {
        match addr {
            SockAddr::Tcp(a) => TcpListener::bind(a.as_str()).map(SockListener::Tcp),
            SockAddr::Uds(p) => {
                let _ = std::fs::remove_file(p);
                UnixListener::bind(p).map(SockListener::Uds)
            }
        }
    }

    /// The bound address — for TCP this resolves port 0 to the real port.
    pub fn local_addr(&self) -> io::Result<SockAddr> {
        match self {
            SockListener::Tcp(l) => l.local_addr().map(|a| SockAddr::Tcp(a.to_string())),
            SockListener::Uds(l) => {
                let a = l.local_addr()?;
                let p = a
                    .as_pathname()
                    .ok_or_else(|| io::Error::other("unnamed UDS"))?;
                Ok(SockAddr::Uds(p.to_path_buf()))
            }
        }
    }

    /// Non-blocking accept (pair with `set_nonblocking(true)`).
    pub fn accept(&self) -> io::Result<SockStream> {
        match self {
            SockListener::Tcp(l) => l.accept().map(|(s, _)| SockStream::Tcp(s)),
            SockListener::Uds(l) => l.accept().map(|(s, _)| SockStream::Uds(s)),
        }
    }

    /// Toggle non-blocking mode.
    pub fn set_nonblocking(&self, on: bool) -> io::Result<()> {
        match self {
            SockListener::Tcp(l) => l.set_nonblocking(on),
            SockListener::Uds(l) => l.set_nonblocking(on),
        }
    }
}

impl AsRawFd for SockListener {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            SockListener::Tcp(l) => l.as_raw_fd(),
            SockListener::Uds(l) => l.as_raw_fd(),
        }
    }
}
