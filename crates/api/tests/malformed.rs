//! The malformed-request corpus: every entry must come back as a typed
//! 4xx/5xx JSON error — never a panic, never a hang, never a connection
//! left dangling past the server's I/O timeout.

mod common;

use common::{parse_reply, send, send_raw};
use hg_api::{ApiServer, ServerConfig};
use hg_rules::json::Json;
use hg_service::{Fleet, RuleStore};
use std::sync::Arc;
use std::time::Duration;

fn server() -> ApiServer {
    let fleet = Arc::new(Fleet::builder(RuleStore::shared()).shards(2).build());
    ApiServer::start(
        fleet,
        ServerConfig {
            io_timeout: Duration::from_millis(500),
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback")
}

#[test]
fn malformed_request_corpus_yields_typed_errors() {
    let server = server();
    let addr = server.addr();
    let corpus: Vec<(&str, Vec<u8>, u16)> = vec![
        ("empty request line", b"\r\n\r\n".to_vec(), 400),
        ("garbage request line", b"ONE TWO\r\n\r\n".to_vec(), 400),
        (
            "unknown method",
            b"BREW /tea HTTP/1.1\r\n\r\n".to_vec(),
            405,
        ),
        ("bad version", b"GET / HTTP/9.9\r\n\r\n".to_vec(), 505),
        (
            "non-origin target",
            b"GET example.com HTTP/1.1\r\n\r\n".to_vec(),
            400,
        ),
        (
            "huge request line",
            format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(8192)).into_bytes(),
            414,
        ),
        (
            "huge header",
            format!("GET /stats HTTP/1.1\r\nx-pad: {}\r\n\r\n", "y".repeat(8192)).into_bytes(),
            431,
        ),
        (
            "too many headers",
            {
                let mut req = String::from("GET /stats HTTP/1.1\r\n");
                for i in 0..100 {
                    req.push_str(&format!("x-h{i}: v\r\n"));
                }
                req.push_str("\r\n");
                req.into_bytes()
            },
            431,
        ),
        (
            "header without colon",
            b"GET /stats HTTP/1.1\r\nnocolonhere\r\n\r\n".to_vec(),
            400,
        ),
        (
            "bad content-length",
            b"POST /sessions HTTP/1.1\r\ncontent-length: banana\r\n\r\n".to_vec(),
            400,
        ),
        (
            "negative content-length",
            b"POST /sessions HTTP/1.1\r\ncontent-length: -5\r\n\r\n".to_vec(),
            400,
        ),
        (
            "oversized body",
            b"POST /sessions HTTP/1.1\r\ncontent-length: 99999999\r\n\r\n".to_vec(),
            413,
        ),
        (
            "chunked request body",
            b"POST /sessions HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n0\r\n\r\n".to_vec(),
            501,
        ),
        (
            "truncated body",
            b"POST /restore HTTP/1.1\r\ncontent-length: 50\r\n\r\nshort".to_vec(),
            408,
        ),
        ("truncated request line", b"GET /sta".to_vec(), 400),
    ];
    for (label, raw, expected) in corpus {
        let response = send_raw(addr, &raw);
        assert!(
            !response.is_empty(),
            "{label}: server must answer before closing"
        );
        let reply = parse_reply(&response);
        assert_eq!(reply.status, expected, "{label}");
        let json = reply.json();
        assert!(
            json.get("error").is_some(),
            "{label}: error body must be structured JSON"
        );
    }
    server.shutdown();
}

#[test]
fn garbage_json_and_missing_fields_are_400s_not_panics() {
    let server = server();
    let addr = server.addr();
    let token = send(addr, "POST", "/sessions", None, None)
        .json()
        .get("token")
        .and_then(Json::as_str)
        .expect("token")
        .to_string();

    // Create a home so per-home routes get past ownership.
    let home = send(addr, "POST", "/homes", Some(&token), None)
        .json()
        .get("home")
        .and_then(Json::as_num)
        .expect("home id");

    let bad_bodies: Vec<(&str, Vec<u8>)> = vec![
        ("not json at all", b"}{ nonsense".to_vec()),
        ("json array not object", b"[1,2,3]".to_vec()),
        ("empty body", Vec::new()),
        ("non-utf8", vec![0xff, 0xfe, 0x00]),
        ("missing fields", b"{\"unrelated\": true}".to_vec()),
    ];
    for (label, body) in bad_bodies {
        let mut raw = format!(
            "POST /homes/{home}/install HTTP/1.1\r\nconnection: close\r\nx-session: {token}\r\n"
        );
        if !body.is_empty() {
            raw.push_str(&format!("content-length: {}\r\n", body.len()));
        }
        raw.push_str("\r\n");
        let mut bytes = raw.into_bytes();
        bytes.extend_from_slice(&body);
        let reply = parse_reply(&send_raw(addr, &bytes));
        assert_eq!(reply.status, 400, "{label}");
        assert!(reply.json().get("error").is_some(), "{label}");
    }

    // Unknown routes are typed 404s.
    assert_eq!(send(addr, "GET", "/nope", None, None).status, 404);
    assert_eq!(
        send(
            addr,
            "POST",
            "/homes/not-a-number/install",
            Some(&token),
            None
        )
        .status,
        404
    );
    // Bad snapshot documents are typed 400s: garbage, a pre-image
    // `kind: fleet` envelope, a duplicated home id, and a delta image.
    let image = send(addr, "GET", "/snapshot", Some(&token), None);
    assert_eq!(image.status, 200);
    let image = image.json();
    let forged = |field: &str, value: Json| {
        let mut doc = image.clone();
        if let Json::Obj(fields) = &mut doc {
            fields.insert(field.to_string(), value);
        }
        doc
    };
    let home_entry = image.get("homes").and_then(Json::as_arr).unwrap()[0].clone();
    let legacy = r#"{"version":1,"kind":"fleet","payload":{"shards":2,"nextId":0,"store":{"config":{"allowNonstandardDevices":false,"modelUndocumentedApis":true,"maxPaths":64,"maxCallDepth":8,"loopUnroll":2},"apps":[]},"homes":[]}}"#;
    let bad_docs = [
        Json::obj([("v", Json::Num(999))]),
        Json::parse(legacy).unwrap(),
        forged("homes", Json::Arr(vec![home_entry.clone(), home_entry])),
        forged("full", Json::Bool(false)),
    ];
    for doc in &bad_docs {
        let bad_snap = send(addr, "POST", "/restore", Some(&token), Some(doc));
        assert_eq!(bad_snap.status, 400, "{}", doc.to_text());
        assert_eq!(
            bad_snap
                .json()
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("bad_snapshot"),
            "{}",
            doc.to_text()
        );
    }

    // After the whole corpus, the server still serves normally.
    let stats = send(addr, "GET", "/stats", None, None);
    assert_eq!(stats.status, 200);
    assert_eq!(stats.json().get("homes").and_then(Json::as_num), Some(1));
    server.shutdown();
}

#[test]
fn unauthenticated_and_foreign_access_are_refused() {
    let server = server();
    let addr = server.addr();

    // No token at all.
    assert_eq!(send(addr, "POST", "/homes", None, None).status, 401);
    // A forged token.
    assert_eq!(
        send(
            addr,
            "POST",
            "/homes",
            Some("feedfacefeedfacefeedfacefeedface"),
            None
        )
        .status,
        401
    );

    // A home owned by session A is untouchable by session B.
    let token_a = send(addr, "POST", "/sessions", None, None)
        .json()
        .get("token")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    let token_b = send(addr, "POST", "/sessions", None, None)
        .json()
        .get("token")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    let home = send(addr, "POST", "/homes", Some(&token_a), None)
        .json()
        .get("home")
        .and_then(Json::as_num)
        .unwrap();
    let foreign = send(addr, "GET", &format!("/homes/{home}"), Some(&token_b), None);
    assert_eq!(foreign.status, 403);
    let own = send(addr, "GET", &format!("/homes/{home}"), Some(&token_a), None);
    assert_eq!(own.status, 200);
    server.shutdown();
}
