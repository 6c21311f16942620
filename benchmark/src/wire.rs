//! One connection of the newline-delimited JSON protocol, sending request
//! lines that were encoded before the timed window.

use datacron_server::Json;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Replies slower than this fail the request instead of hanging the run.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            line: String::new(),
        })
    }

    /// Sends one request line (already newline-terminated) and returns
    /// the reply line without its newline.
    pub fn call_raw(&mut self, request_line: &str) -> io::Result<&str> {
        self.writer.write_all(request_line.as_bytes())?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(self.line.trim_end())
    }

    pub fn call(&mut self, request_line: &str) -> io::Result<Json> {
        let reply = self.call_raw(request_line)?;
        Json::parse(reply).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unparseable reply: {e}"),
            )
        })
    }
}

pub fn is_ok(reply: &Json) -> bool {
    reply.get("ok").and_then(Json::as_bool) == Some(true)
}

/// Unsigned integer at a dotted path, e.g. `pipeline.reports_in`.
pub fn u64_at(v: &Json, path: &str) -> Option<u64> {
    path.split('.').try_fold(v, |v, key| v.get(key))?.as_u64()
}
