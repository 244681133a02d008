//! HTTP/1.1 response rendering.

use qcm::prelude::ApiError;
use qcm_obs::json::{object, Json};

/// A response under construction: status, extra headers, body.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Extra headers beyond the always-present set (name, value).
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
    /// Content type of the body.
    pub content_type: &'static str,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: &Json) -> Response {
        Response {
            status,
            headers: Vec::new(),
            body: body.render().into_bytes(),
            content_type: "application/json",
        }
    }

    /// A plain-text response (the Prometheus exposition).
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            headers: Vec::new(),
            body: body.into().into_bytes(),
            content_type: "text/plain; version=0.0.4",
        }
    }

    /// The standard error response: the shared
    /// `{"error":{"code":…,"message":…}}` body at the code's status, plus
    /// `Retry-After` when the code is retryable-by-waiting (the
    /// load-shedding SLO made visible on the wire).
    pub fn error(err: &ApiError) -> Response {
        let body = object(vec![(
            "error",
            object(vec![
                ("code", Json::from(err.code.as_str())),
                ("message", Json::from(err.message.as_str())),
            ]),
        )]);
        let mut response = Response::json(err.code.http_status(), &body);
        if let Some(secs) = err.code.retry_after_secs() {
            response
                .headers
                .push(("Retry-After".to_string(), secs.to_string()));
        }
        response
    }

    /// Serialises the response, closing or keeping the connection per
    /// `keep_alive`.
    pub fn render(&self, keep_alive: bool) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.body.len() + 256);
        out.extend_from_slice(
            format!(
                "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
                self.status,
                reason(self.status),
                self.content_type,
                self.body.len(),
                if keep_alive { "keep-alive" } else { "close" },
            )
            .as_bytes(),
        );
        for (name, value) in &self.headers {
            out.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        out
    }
}

/// Reason phrases for the statuses the service emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        401 => "Unauthorized",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Content Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Status",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcm::prelude::ErrorCode;

    #[test]
    fn renders_status_line_headers_and_body() {
        let rendered = Response::json(200, &object(vec![("ok", Json::from(true))])).render(true);
        let text = String::from_utf8(rendered).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("content-type: application/json\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"), "{text}");
    }

    #[test]
    fn shed_errors_carry_retry_after_and_the_stable_code() {
        let err = ApiError::new(ErrorCode::Overloaded, "queue full");
        let text = String::from_utf8(Response::error(&err).render(false)).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"), "{text}");
        assert!(text.contains("connection: close\r\n"));
        assert!(text.contains("\"code\":\"overloaded\""), "{text}");
        // Non-retryable codes have no Retry-After.
        let err = ApiError::new(ErrorCode::UnknownJob, "nope");
        let text = String::from_utf8(Response::error(&err).render(true)).unwrap();
        assert!(!text.contains("Retry-After"), "{text}");
        assert!(text.starts_with("HTTP/1.1 404 Not Found\r\n"));
    }
}
