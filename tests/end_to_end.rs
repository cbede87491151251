//! Whole-system tests: DGL documents over the wire, through the server,
//! against the grid — the full Appendix A protocol.

use datagridflows::prelude::*;

fn path(s: &str) -> LogicalPath {
    LogicalPath::parse(s).unwrap()
}

fn dfms_with_users(user_names: &[&str]) -> Dfms {
    let topology = GridBuilder::preset(GridPreset::UniformMesh { domains: 3 });
    let mut users = UserRegistry::new();
    let d0 = topology.domain_ids().next().unwrap();
    for name in user_names {
        users.register(Principal::new(*name, d0));
        users.make_admin(name).unwrap();
    }
    Dfms::new(DataGrid::new(topology, users), Scheduler::new(PlannerKind::CostBased, 99))
}

/// The complete request→ack→poll→status loop, entirely in DGL XML.
#[test]
fn asynchronous_protocol_in_pure_xml() {
    let mut dfms = dfms_with_users(&["arun"]);
    let request_xml = r#"<?xml version="1.0" encoding="UTF-8"?>
<dataGridRequest id="req-001" mode="asynchronous">
  <documentMetadata><description>nightly pipeline</description></documentMetadata>
  <gridUser name="arun" vo="sdsc"/>
  <flow name="pipeline">
    <flowLogic><sequential/></flowLogic>
    <children>
      <step name="mk"><operation><createCollection path="/nightly"/></operation></step>
      <step name="put"><operation><ingest path="/nightly/log.dat" size="1000000" resource="site0-disk"/></operation></step>
      <step name="sum"><operation><checksum path="/nightly/log.dat" register="true"/></operation></step>
    </children>
  </flow>
</dataGridRequest>"#;
    let ack_xml = dfms.handle_xml(request_xml);
    let ack = datagridflows::dgl::parse_response(&ack_xml).unwrap();
    let txn = ack.transaction().to_owned();
    match &ack.body {
        ResponseBody::Ack(a) => {
            assert!(a.valid);
            assert_eq!(a.state, RunState::Pending);
        }
        other => panic!("expected ack, got {other:?}"),
    }

    dfms.pump();

    let query_xml = format!(
        r#"<dataGridRequest id="req-002"><gridUser name="arun"/><flowStatusQuery transaction="{txn}"/></dataGridRequest>"#
    );
    let status_xml = dfms.handle_xml(&query_xml);
    let status = datagridflows::dgl::parse_response(&status_xml).unwrap();
    match status.body {
        ResponseBody::Status(s) => {
            assert_eq!(s.state, RunState::Completed);
            assert_eq!(s.steps_completed, 3);
        }
        other => panic!("expected status, got {other:?}"),
    }
    assert!(dfms.grid().stat_object(&path("/nightly/log.dat")).unwrap().checksum.is_some());
}

/// Node-granular status queries over XML (the "any level of granularity"
/// requirement of §4).
#[test]
fn granular_status_queries_in_xml() {
    let mut dfms = dfms_with_users(&["arun"]);
    let flow = FlowBuilder::sequential("outer")
        .flow(
            FlowBuilder::parallel("fan")
                .step("a", DglOperation::CreateCollection { path: "/a".into() })
                .step("b", DglOperation::CreateCollection { path: "/b".into() })
                .build()
                .unwrap(),
        )
        .build()
        .unwrap();
    let txn = dfms.submit_flow("arun", flow).unwrap();
    dfms.pump();
    let query = DataGridRequest::status("q", "arun", FlowStatusQuery::node(&txn, "/0/1"));
    let response = dfms.handle(query);
    match response.body {
        ResponseBody::Status(s) => {
            assert_eq!(s.name, "b");
            assert_eq!(s.state, RunState::Completed);
            assert_eq!(s.node, "/0/1");
        }
        other => panic!("{other:?}"),
    }
}

/// Multi-user isolation: ACLs hold across the engine boundary.
#[test]
fn acl_enforcement_through_the_engine() {
    let topology = GridBuilder::preset(GridPreset::UniformMesh { domains: 2 });
    let mut users = UserRegistry::new();
    let d0 = topology.domain_ids().next().unwrap();
    users.register(Principal::new("owner", d0));
    users.register(Principal::new("intruder", d0));
    users.make_admin("owner").unwrap();
    let mut dfms = Dfms::new(DataGrid::new(topology, users), Scheduler::new(PlannerKind::CostBased, 1));

    let setup = FlowBuilder::sequential("setup")
        .step("mk", DglOperation::CreateCollection { path: "/private".into() })
        .step("put", DglOperation::Ingest { path: "/private/secret".into(), size: "10".into(), resource: "site0-disk".into() })
        .build()
        .unwrap();
    dfms.submit_flow("owner", setup).unwrap();
    dfms.pump();

    let attack = FlowBuilder::sequential("attack")
        .step("steal", DglOperation::Delete { path: "/private/secret".into() })
        .build()
        .unwrap();
    let txn = dfms.submit_flow("intruder", attack).unwrap();
    dfms.pump();
    let report = dfms.status(&txn, None).unwrap();
    assert_eq!(report.state, RunState::Failed);
    assert!(report.message.as_deref().unwrap().contains("lacks"));
    assert!(dfms.grid().exists(&path("/private/secret")), "the data survived");
}

/// The P2P network (a fabric of one shard per zone) routes DGL
/// documents between zones.
#[test]
fn p2p_network_federates_two_zones() {
    let mut net = Fabric::new();
    net.add_shard("us-west", &["/sdsc"], dfms_with_users(&["arun"])).unwrap();
    net.add_shard("uk", &["/cclrc"], dfms_with_users(&["peter"])).unwrap();

    for (user, zone) in [("arun", "/sdsc"), ("peter", "/cclrc")] {
        let flow = FlowBuilder::sequential("seed")
            .step("mk", DglOperation::CreateCollection { path: zone.into() })
            .step("put", DglOperation::Ingest { path: format!("{zone}/data"), size: "100".into(), resource: "site0-disk".into() })
            .build()
            .unwrap();
        let (routed, response) = net.route(DataGridRequest::flow(format!("r-{user}"), user, flow)).unwrap();
        match response.body {
            ResponseBody::Status(s) => assert_eq!(s.state, RunState::Completed),
            other => panic!("{other:?}"),
        }
        let expected = if zone == "/sdsc" { "us-west" } else { "uk" };
        assert_eq!(routed, expected);
    }
    assert!(net.engine("us-west").unwrap().grid().exists(&path("/sdsc/data")));
    assert!(net.engine("uk").unwrap().grid().exists(&path("/cclrc/data")));
    assert!(!net.engine("uk").unwrap().grid().exists(&path("/sdsc/data")), "zones are disjoint");
}

/// The threaded server: many clients, one deterministic engine.
#[test]
fn threaded_server_handles_concurrent_dgl_clients() {
    let server = DfmsServer::start(dfms_with_users(&["arun"]));
    let setup = FlowBuilder::sequential("setup")
        .step("mk", DglOperation::CreateCollection { path: "/shared".into() })
        .build()
        .unwrap();
    server.handle().request(&DataGridRequest::flow("setup", "arun", setup).to_xml()).unwrap();

    let mut joins = Vec::new();
    for i in 0..6 {
        let handle = server.handle();
        joins.push(std::thread::spawn(move || {
            let flow = FlowBuilder::sequential(format!("client{i}"))
                .step("put", DglOperation::Ingest { path: format!("/shared/f{i}"), size: "1000".into(), resource: "site0-disk".into() })
                .build()
                .unwrap();
            let xml = DataGridRequest::flow(format!("r{i}"), "arun", flow).to_xml();
            let response = handle.request(&xml).unwrap();
            datagridflows::dgl::parse_response(&response).unwrap()
        }));
    }
    for join in joins {
        match join.join().unwrap().body {
            ResponseBody::Status(s) => assert_eq!(s.state, RunState::Completed),
            other => panic!("{other:?}"),
        }
    }
    let (_, engine) = server.shutdown();
    assert_eq!(engine.grid().stats().objects, 6);
}

/// Failure mid-flow leaves earlier effects visible (non-transactional,
/// §2.2) and the status explains where it broke.
#[test]
fn non_transactional_failure_reporting() {
    let mut dfms = dfms_with_users(&["arun"]);
    let flow = FlowBuilder::sequential("doomed")
        .step("good", DglOperation::CreateCollection { path: "/done".into() })
        .step("bad", DglOperation::Replicate { path: "/missing".into(), src: None, dst: "site1-disk".into() })
        .build()
        .unwrap();
    let txn = dfms.submit_flow("arun", flow).unwrap();
    dfms.pump();
    let report = dfms.status(&txn, None).unwrap();
    assert_eq!(report.state, RunState::Failed);
    assert!(dfms.grid().exists(&path("/done")));
    // The failing child is identifiable from the report tree.
    let children = &report.children;
    assert_eq!(children.len(), 2);
    assert_eq!(children[0].2, RunState::Completed);
    assert_eq!(children[1].2, RunState::Failed);
}
