//! A `nevd` child process and a line-protocol connection to it.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// No single response may take longer than this; a stalled server ends the
/// run with the request counted as failed instead of hanging it.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// A running `nevd`. Dropping it kills the process and waits for it.
pub struct Nevd {
    child: Child,
    pub addr: String,
}

impl Nevd {
    /// Starts `binary --port 0 --workers N` and reads the bound address from
    /// its first stdout line.
    pub fn spawn(binary: &str, workers: usize) -> io::Result<Nevd> {
        let mut child = Command::new(binary)
            .args(["--port", "0", "--workers", &workers.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut banner = String::new();
        let stdout = child.stdout.take().expect("stdout is piped");
        let read = BufReader::new(stdout).read_line(&mut banner);
        // `nevd listening on 127.0.0.1:PORT (N workers)`
        let addr = banner
            .strip_prefix("nevd listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .map(str::to_string);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Nevd { child, addr }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(io::Error::other(format!(
                    "nevd printed no address: {banner:?}"
                )))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// User plus system CPU time of every thread so far, in clock ticks
    /// (fields 14 and 15 of `/proc/<pid>/stat`).
    pub fn cpu_ticks(&self) -> io::Result<u64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid()))?;
        // The command name may hold spaces; fields resume after its `)`.
        let rest = stat
            .rsplit_once(')')
            .map(|(_, rest)| rest)
            .ok_or_else(|| bad_data("malformed /proc stat"))?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let field = |n: usize| -> io::Result<u64> {
            // Field n (1-based) is at index n - 3 after the `)`.
            fields
                .get(n - 3)
                .and_then(|f| f.parse().ok())
                .ok_or_else(|| bad_data("malformed /proc stat"))
        };
        Ok(field(14)? + field(15)?)
    }

    /// Peak resident set size (`VmHWM`), in KiB.
    pub fn peak_rss_kib(&self) -> io::Result<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| bad_data("no VmHWM in /proc status"))
    }

    /// Kills the process and waits until it has ended.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Nevd {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn bad_data(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// A blocking connection that can write a window of request lines before
/// reading their responses.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        let writer = stream.try_clone()?;
        Ok(Conn {
            writer,
            reader: BufReader::with_capacity(1 << 20, stream),
        })
    }

    /// Writes the lines in one `write_all`.
    pub fn write_lines<'a>(&mut self, lines: impl Iterator<Item = &'a str>) -> io::Result<()> {
        let mut framed = String::new();
        for line in lines {
            framed.push_str(line);
            framed.push('\n');
        }
        self.writer.write_all(framed.as_bytes())?;
        self.writer.flush()
    }

    /// Reads one response line into `buf` (cleared first, newline stripped).
    pub fn read_line(&mut self, buf: &mut String) -> io::Result<()> {
        buf.clear();
        if self.reader.read_line(buf)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        if buf.ends_with('\n') {
            buf.pop();
        }
        Ok(())
    }

    pub fn send(&mut self, line: &str) -> io::Result<String> {
        self.write_lines(std::iter::once(line))?;
        let mut response = String::new();
        self.read_line(&mut response)?;
        Ok(response)
    }

    /// The request-latency histogram's sum (µs) and count over every plan,
    /// from `METRICS`: the server's own time inside each `EVAL`.
    pub fn eval_time(&mut self) -> io::Result<(f64, f64)> {
        self.write_lines(std::iter::once("METRICS"))?;
        let (mut sum, mut count) = (0.0, 0.0);
        let mut line = String::new();
        loop {
            self.read_line(&mut line)?;
            if line == "# EOF" {
                return Ok((sum, count));
            }
            let Some((key, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let value: f64 = value.parse().unwrap_or(0.0);
            if key.starts_with("nev_request_latency_us_sum") {
                sum += value;
            } else if key.starts_with("nev_request_latency_us_count") {
                count += value;
            }
        }
    }

    /// Sends `QUIT` and waits for the server to close the connection.
    pub fn quit(mut self) {
        if self.send("QUIT").is_ok() {
            let _ = self.reader.read_to_end(&mut Vec::new());
        }
    }
}
