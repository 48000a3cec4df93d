//! One HTTP/1.1 client over one keep-alive connection.
//!
//! The client reconnects when the server ends the connection — it answers
//! `connection: close` at the per-connection request cap — and a
//! reconnect is not a failure. Any other I/O error fails the request.

use cqp_server::http::{parse_response, ClientResponse, HttpError};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};

pub struct Client {
    addr: SocketAddr,
    conn: Option<(TcpStream, BufReader<TcpStream>)>,
}

fn connect(addr: SocketAddr) -> std::io::Result<(TcpStream, BufReader<TcpStream>)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let reader = BufReader::new(stream.try_clone()?);
    Ok((stream, reader))
}

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client { addr, conn: None }
    }

    /// Sends one complete request and reads its response.
    pub fn send(&mut self, request: &[u8]) -> Result<ClientResponse, HttpError> {
        let fresh = self.conn.is_none();
        match self.exchange(request) {
            // The server closed an idle kept-alive connection before our
            // request reached it: nothing was processed, so resending on a
            // new connection is safe.
            Err(HttpError::ConnectionClosed) if !fresh => self.exchange(request),
            other => other,
        }
    }

    fn exchange(&mut self, request: &[u8]) -> Result<ClientResponse, HttpError> {
        if self.conn.is_none() {
            self.conn = Some(connect(self.addr)?);
        }
        let (stream, reader) = self.conn.as_mut().expect("connected above");
        let result = stream
            .write_all(request)
            .map_err(HttpError::from)
            .and_then(|()| parse_response(reader));
        match &result {
            Ok(resp) if resp.header("connection") != Some("close") => {}
            _ => self.conn = None,
        }
        result
    }
}
