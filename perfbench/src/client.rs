//! A minimal keep-alive HTTP/1.1 client and the `semitri-cli serve`
//! child process it talks to.

use std::fs::File;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// One keep-alive connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    buf: Vec<u8>,
}

impl Conn {
    /// Connects with Nagle off (requests are written in one piece).
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let reader = BufReader::with_capacity(64 * 1024, stream.try_clone()?);
        Ok(Self {
            writer: stream,
            reader,
            buf: Vec::new(),
        })
    }

    /// Sends one request and reads its response: `(status, body)`.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &[&[u8]],
    ) -> io::Result<(u16, Vec<u8>)> {
        self.send(method, path, body)?;
        self.recv()
    }

    /// Sends one request whose body is the concatenation of `body`,
    /// without waiting for the response.
    pub fn send(&mut self, method: &str, path: &str, body: &[&[u8]]) -> io::Result<()> {
        let len: usize = body.iter().map(|b| b.len()).sum();
        self.buf.clear();
        write!(
            self.buf,
            "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {len}\r\n\r\n"
        )?;
        for part in body {
            self.buf.extend_from_slice(part);
        }
        self.writer.write_all(&self.buf)
    }

    /// Reads the response to the oldest request still unanswered.
    pub fn recv(&mut self) -> io::Result<(u16, Vec<u8>)> {
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        let status: u16 = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut content_length = None;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("truncated headers"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse::<usize>().ok();
                }
            }
        }
        let n = content_length.ok_or_else(|| bad("response without Content-Length"))?;
        let mut body = vec![0u8; n];
        self.reader.read_exact(&mut body)?;
        Ok((status, body))
    }
}

/// A running `semitri-cli serve` child. Its stdout goes to a file, so the
/// server never writes into a closed pipe; dropping the handle kills the
/// child and waits for it.
pub struct ServerChild {
    child: Child,
    /// The address the server bound.
    pub addr: SocketAddr,
    /// Seconds from spawn to the first `200` on `GET /healthz`.
    pub setup_s: f64,
}

impl ServerChild {
    /// Spawns `cli serve <preset> 127.0.0.1:0 <seed> --workers 2
    /// [--store <store>]` and waits until `/healthz` answers `200`.
    pub fn spawn(
        cli: &Path,
        preset: &str,
        seed: u64,
        store: Option<&Path>,
        stdout_log: &Path,
    ) -> io::Result<Self> {
        let out = File::create(stdout_log)?;
        let mut cmd = Command::new(cli);
        cmd.args([
            "serve",
            preset,
            "127.0.0.1:0",
            &seed.to_string(),
            "--workers",
            "2",
        ]);
        if let Some(path) = store {
            cmd.arg("--store").arg(path);
        }
        let t0 = Instant::now();
        let child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::from(out))
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut server = Self {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            setup_s: 0.0,
        };
        let deadline = t0 + Duration::from_secs(60);
        server.addr = loop {
            if let Some(addr) = listening_addr(stdout_log)? {
                break addr;
            }
            if Instant::now() > deadline || server.child.try_wait()?.is_some() {
                return Err(io::Error::other("server did not report its address"));
            }
            std::thread::sleep(Duration::from_micros(500));
        };
        loop {
            if let Ok(mut conn) = Conn::connect(server.addr) {
                if let Ok((200, _)) = conn.request("GET", "/healthz", &[]) {
                    break;
                }
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("server never answered /healthz"));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        server.setup_s = t0.elapsed().as_secs_f64();
        Ok(server)
    }

    /// CPU time (user + system, all threads) the child has used, s.
    pub fn cpu_s(&self) -> Option<f64> {
        cpu_s(&format!("/proc/{}/stat", self.child.id()))
    }

    /// Resident set (`VmRSS`) of the child, in MB.
    pub fn rss_mb(&self) -> Option<f64> {
        status_mb(&format!("/proc/{}/status", self.child.id()), "VmRSS:")
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn listening_addr(stdout_log: &Path) -> io::Result<Option<SocketAddr>> {
    let text = std::fs::read_to_string(stdout_log)?;
    Ok(text
        .lines()
        .find_map(|l| l.split("listening on http://").nth(1))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|a| a.parse().ok()))
}

/// A `kB` field (`VmRSS:`, `VmHWM:`) of a `/proc/<pid>/status` file, in MB.
pub fn status_mb(status_path: &str, field: &str) -> Option<f64> {
    let text = std::fs::read_to_string(status_path).ok()?;
    let kb: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix(field))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// User + system CPU time from a `/proc/<pid>/stat` file, s.
pub fn cpu_s(stat_path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(stat_path).ok()?;
    // fields after the parenthesized command name; utime and stime are
    // the 14th and 15th fields of the line, in clock ticks
    let rest = &text[text.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 = fields.get(11)?.parse::<f64>().ok()? + fields.get(12)?.parse::<f64>().ok()?;
    Some(ticks / CLOCK_TICKS_PER_S)
}

/// `USER_HZ`, the unit of `/proc` CPU times on Linux.
const CLOCK_TICKS_PER_S: f64 = 100.0;
