//! Correctness checks: every reply the timed run kept is compared with
//! what a simpler program answers.
//!
//! * **Serial replay** — a session's first lines go through
//!   `api::execute` on a bare single-threaded `SessionState` (no service,
//!   no worker pool, `cache: None`, no shared caches); the reply JSON
//!   must be byte-identical. Skipped where reads race a concurrent feed:
//!   there a reply legitimately depends on the generation it met.
//! * **Generations** — every `objects` a `summary` reported must be the
//!   row count of some generation of the table.
//! * **Append ≡ reload** — after the run has quiesced, every session's
//!   `summary` + `render` must equal those of a fresh service loaded
//!   with the final rows and brought to the same query (PR 9's property).

use std::sync::Arc;

use visdb_core::Session;
use visdb_service::json::{parse, Json};
use visdb_service::server::handle_line;
use visdb_service::{execute, Request, Service, SessionState};

use crate::run::{service_config, Record, Rig};
use crate::script::DATASET;
use crate::workload::APPEND_ROWS;

/// Mismatch descriptions are cut to this many characters.
const SHOWN: usize = 300;

fn shorten(s: &str) -> String {
    if s.len() <= SHOWN {
        s.to_string()
    } else {
        let cut = (0..=SHOWN)
            .rev()
            .find(|&i| s.is_char_boundary(i))
            .unwrap_or(0);
        format!("{}… ({} bytes)", &s[..cut], s.len())
    }
}

/// What `handle_line` would answer, computed without a service.
fn serial_reply(state: &mut SessionState, line: &str) -> String {
    let reply = parse(line).and_then(|msg| {
        let request = Request::from_json(&msg)?;
        let mut reply = execute(state, &request, None).to_json();
        if let (Some(id), Json::Obj(map)) = (msg.get("id"), &mut reply) {
            map.insert("id".into(), id.clone());
        }
        Ok(reply)
    });
    match reply {
        Ok(reply) => reply.to_string(),
        Err(e) => format!("oracle could not run the line: {e}"),
    }
}

/// Replay one session's kept lines serially; one entry per mismatch.
pub fn serial_replay(rig: &Rig, session: usize, record: &Record) -> Vec<String> {
    let mut bare = Session::new(Arc::clone(&rig.data.db), rig.data.registry.clone());
    // what `SessionManager::create` sets: modifications are lazy, the
    // next fetch pays for the pipeline
    bare.set_auto_recalculate(false);
    let mut state = SessionState {
        session: bare,
        dataset: DATASET.into(),
    };
    record
        .lines
        .iter()
        .filter_map(|(line, reply)| {
            let expected = serial_reply(&mut state, line);
            (expected != *reply).then(|| {
                format!(
                    "session {}: {} answered {} but the serial oracle says {}",
                    session + 1,
                    shorten(line),
                    shorten(reply),
                    shorten(&expected)
                )
            })
        })
        .collect()
}

/// Every session's record, analysts first, then the monitor.
fn records<'r>(rig: &'r Rig) -> impl Iterator<Item = &'r Record> {
    rig.clients
        .iter()
        .flat_map(|c| c.records.iter())
        .chain(std::iter::once(&rig.feed.record))
}

/// Run every check that applies to the rig's workload; one entry per
/// mismatch (an empty list is a pass). The rig must be quiescent.
pub fn verify(rig: &Rig) -> Vec<String> {
    let mut mismatches = Vec::new();
    let spec = rig.spec;
    if spec.feed.is_none() {
        // analysts only: the monitor's lines are appends, which no bare
        // session can execute
        let analysts = rig.clients.iter().flat_map(|c| c.records.iter());
        for (session, record) in analysts.enumerate() {
            mismatches.extend(serial_replay(rig, session, record));
        }
    }

    let base_rows = rig.data.db.table(spec.outer).expect("outer table").len();
    let appended = &rig.feed.script.appended;
    for (session, record) in records(rig).enumerate() {
        for &objects in &record.objects {
            let delta = objects.wrapping_sub(base_rows);
            if objects < base_rows || delta % APPEND_ROWS != 0 || delta > appended.len() {
                mismatches.push(format!(
                    "session {}: summary saw {objects} objects, no generation of {} has that many \
                     ({base_rows} rows + {} appended)",
                    session + 1,
                    spec.outer,
                    appended.len()
                ));
            }
        }
    }

    let final_db = if appended.is_empty() {
        Arc::clone(&rig.data.db)
    } else {
        let mut grown = (*rig.data.db).clone();
        grown
            .table_mut(spec.outer)
            .expect("outer table")
            .append_rows(appended.clone())
            .expect("rows the service accepted");
        Arc::new(grown)
    };
    let fresh = Service::new(service_config());
    fresh.register_dataset(DATASET, final_db, rig.data.registry.clone());
    for (session, record) in records(rig).enumerate() {
        let created = handle_line(
            &fresh,
            &format!("{{\"op\":\"create_session\",\"dataset\":\"{DATASET}\"}}"),
        );
        assert_eq!(
            created.get("session").and_then(Json::as_u64),
            Some(session as u64 + 1)
        );
        for line in &record.state {
            handle_line(&fresh, line);
        }
        for fetch in [
            "\"op\":\"summary\"",
            "\"op\":\"render\",\"format\":\"ascii\"",
        ] {
            let line = format!("{{\"id\":0,\"session\":{},{fetch}}}", session + 1);
            let live = handle_line(&rig.service, &line).to_string();
            let reloaded = handle_line(&fresh, &line).to_string();
            if live != reloaded {
                mismatches.push(format!(
                    "session {}: after quiescing, {line} answers {} but a fresh service over \
                     the final rows answers {}",
                    session + 1,
                    shorten(&live),
                    shorten(&reloaded)
                ));
            }
        }
    }
    mismatches
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::Data;
    use crate::workload;

    #[test]
    fn a_tampered_reply_is_a_mismatch() {
        let spec = workload::by_name("solo_1m").unwrap().smoke();
        let data = Data::generate(&spec);
        let mut rig = Rig::set_up(&spec, &data, 3);
        assert_eq!(verify(&rig), Vec::<String>::new());
        let kept = &mut rig.clients[0].records[0];
        let (_, reply) = kept
            .lines
            .iter_mut()
            .find(|(line, _)| line.contains("\"render\""))
            .expect("the warm-up renders");
        *reply = reply.replace("\"width\":", "\"width\":1");
        kept.objects.push(12_345);
        let found = verify(&rig);
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found[0].contains("serial oracle"));
        assert!(found[1].contains("no generation"));
    }
}
