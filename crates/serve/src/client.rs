//! A blocking `IXSRV01` client.

use std::net::{TcpStream, ToSocketAddrs};

use ix_core::Diagnosis;

use crate::error::{ServeError, STATUS_OK};
use crate::tenant::TenantId;
use crate::wire::{
    self, BinaryPayload, DrainReply, DrainRequest, FrameReader, HealthReply, IngestReply, Op,
    RequestFrame, DEFAULT_MAX_FRAME_BYTES,
};

/// A blocking client over one `IXSRV01` TCP connection. Requests are
/// sequential: each call writes one frame and reads one response.
/// Ingest, drain and diagnose travel as binary payloads, and the
/// request, frame and response buffers are reused from call to call.
#[derive(Debug)]
pub struct ServeClient {
    stream: TcpStream,
    max_frame_bytes: usize,
    /// The next request's payload.
    payload: Vec<u8>,
    /// The outgoing frame.
    frame: Vec<u8>,
    /// The incoming frame.
    frames: FrameReader,
}

impl ServeClient {
    /// Connects to a serving endpoint.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the connection fails.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<ServeClient, ServeError> {
        let stream = TcpStream::connect(addr)?;
        // Requests are single small frames; without nodelay each one
        // waits out the server's delayed ACK.
        stream.set_nodelay(true)?;
        Ok(ServeClient {
            stream,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            payload: Vec::new(),
            frame: Vec::new(),
            frames: FrameReader::default(),
        })
    }

    /// Overrides the response frame size limit (defaults to 1 MiB).
    pub fn set_max_frame_bytes(&mut self, max: usize) {
        self.max_frame_bytes = max.max(16);
    }

    /// Sends one raw request frame and returns `(status, payload)`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on socket failures; [`ServeError::Protocol`] /
    /// [`ServeError::Version`] on a malformed response;
    /// [`ServeError::FrameTooLarge`] when the response exceeds the limit.
    pub fn request(&mut self, frame: &RequestFrame) -> Result<(u16, Vec<u8>), ServeError> {
        self.payload.clear();
        self.payload.extend_from_slice(&frame.payload);
        let (status, payload) = self.exchange(&frame.tenant, frame.op)?;
        Ok((status, payload.to_vec()))
    }

    /// Sends the buffered payload as an `op` request and returns the
    /// response's status and payload, borrowed from the frame buffer.
    fn exchange(&mut self, tenant: &TenantId, op: Op) -> Result<(u16, &[u8]), ServeError> {
        let payload = &self.payload;
        wire::write_frame_with(&mut self.stream, &mut self.frame, |out| {
            wire::push_request(out, tenant, op, payload)
        })?;
        let body = self
            .frames
            .read(&mut self.stream, self.max_frame_bytes)?
            .ok_or_else(|| {
                ServeError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection before responding",
                ))
            })?;
        wire::parse_response(body)
    }

    /// [`ServeClient::exchange`], with a non-zero status as the error.
    fn call(&mut self, tenant: &TenantId, op: Op) -> Result<&[u8], ServeError> {
        match self.exchange(tenant, op)? {
            (STATUS_OK, payload) => Ok(payload),
            (code, payload) => Err(ServeError::Status {
                code,
                message: String::from_utf8_lossy(payload).into_owned(),
            }),
        }
    }

    /// Ingests one tick for a tenant context.
    ///
    /// # Errors
    ///
    /// [`ServeError::Status`] carrying the server's non-zero status (an
    /// engine [`ix_core::ErrorCode`] discriminant or a serve status).
    pub fn ingest(
        &mut self,
        tenant: &TenantId,
        node: &str,
        workload: &str,
        cpi: f64,
        row: &[f64],
    ) -> Result<IngestReply, ServeError> {
        wire::binary_into(&mut self.payload, |w| {
            wire::write_ingest(w, node, workload, cpi, row)
        });
        wire::decode_binary(self.call(tenant, Op::Ingest)?)
    }

    /// Drains up to `max_ticks` queued ticks through the tenant's engine.
    ///
    /// # Errors
    ///
    /// [`ServeError::Status`] carrying the server's non-zero status.
    pub fn drain(&mut self, tenant: &TenantId, max_ticks: usize) -> Result<DrainReply, ServeError> {
        wire::binary_into(&mut self.payload, |w| {
            DrainRequest { max_ticks }.write_fields(w)
        });
        wire::decode_binary(self.call(tenant, Op::Drain)?)
    }

    /// Diagnoses a tenant context's current sliding window.
    ///
    /// # Errors
    ///
    /// [`ServeError::Status`] carrying the server's non-zero status.
    pub fn diagnose(
        &mut self,
        tenant: &TenantId,
        node: &str,
        workload: &str,
    ) -> Result<Diagnosis, ServeError> {
        wire::binary_into(&mut self.payload, |w| {
            wire::write_context(w, node, workload)
        });
        wire::decode_binary(self.call(tenant, Op::Diagnose)?)
    }

    /// Reports the fleet's health and counters. The tenant id routes the
    /// frame but any registered-or-not id is accepted.
    ///
    /// # Errors
    ///
    /// [`ServeError::Status`] carrying the server's non-zero status.
    pub fn health(&mut self, tenant: &TenantId) -> Result<HealthReply, ServeError> {
        self.payload.clear();
        let payload = self.call(tenant, Op::Health)?;
        let text = std::str::from_utf8(payload)
            .map_err(|e| ServeError::Protocol(format!("response not UTF-8: {e}")))?;
        serde_json::from_str(text).map_err(|e| ServeError::Protocol(format!("response: {e}")))
    }

    /// Fetches the tenant's snapshot bytes (a row-free `IXHIST01` image).
    ///
    /// # Errors
    ///
    /// [`ServeError::Status`] carrying the server's non-zero status.
    pub fn snapshot(&mut self, tenant: &TenantId) -> Result<Vec<u8>, ServeError> {
        self.payload.clear();
        Ok(self.call(tenant, Op::Snapshot)?.to_vec())
    }
}
