//! Row-by-row conformance against the paper's Table 2.
//!
//! Each test drives a controller into one of Table 2's states, applies one
//! column's event, and checks the printed `<action>/<next state>` entry:
//! the emitted messages, the successor state, the "error" cells, and the
//! `z` (stall) cells. This is the most direct fidelity artifact in the
//! repository — the table in the paper is the protocol.

use fsoi_check::{checker, vec_of};
use fsoi_coherence::directory::Directory;
use fsoi_coherence::l1::L1Controller;
use fsoi_coherence::protocol::{CoherenceMsg, DirState, Grant, L1State, LineAddr, ReqType};

const L: LineAddr = LineAddr(0x400);
const MEM: usize = 99;

// --------------------------------------------------------------------- L1

fn l1() -> L1Controller {
    let mut c = L1Controller::new(3, 64, 2, 32);
    c.set_home_nodes(16);
    c
}

/// Drives a fresh L1 into the requested Table 2 state for line `L`.
fn l1_in(state: L1State) -> L1Controller {
    let mut c = l1();
    match state {
        L1State::I => {}
        L1State::S => {
            c.read(L);
            c.handle(CoherenceMsg::Data {
                grant: Grant::Shared,
                line: L,
            })
            .unwrap();
        }
        L1State::E => {
            c.read(L);
            c.handle(CoherenceMsg::Data {
                grant: Grant::Exclusive,
                line: L,
            })
            .unwrap();
        }
        L1State::M => {
            c.write(L);
            c.handle(CoherenceMsg::Data {
                grant: Grant::Modified,
                line: L,
            })
            .unwrap();
        }
        L1State::ISD => {
            c.read(L);
        }
        L1State::IMD => {
            c.write(L);
        }
        L1State::SMA => {
            c.read(L);
            c.handle(CoherenceMsg::Data {
                grant: Grant::Shared,
                line: L,
            })
            .unwrap();
            c.write(L);
        }
    }
    assert_eq!(c.state_of(L), state, "setup failed");
    c
}

#[test]
fn l1_row_i() {
    // I: Read → Req(Sh)/I.SD ; Write → Req(Ex)/I.MD ; Inv → InvAck/I ;
    // Dwg → DwgAck/I.
    let mut c = l1_in(L1State::I);
    let a = c.read(L);
    assert!(matches!(
        a.out[0].msg,
        CoherenceMsg::Req {
            kind: ReqType::Sh,
            ..
        }
    ));
    assert_eq!(c.state_of(L), L1State::ISD);

    let mut c = l1_in(L1State::I);
    let a = c.write(L);
    assert!(matches!(
        a.out[0].msg,
        CoherenceMsg::Req {
            kind: ReqType::Ex,
            ..
        }
    ));
    assert_eq!(c.state_of(L), L1State::IMD);

    let mut c = l1_in(L1State::I);
    let r = c.handle(CoherenceMsg::Inv { line: L }).unwrap();
    assert!(matches!(
        r.out[0].msg,
        CoherenceMsg::InvAck {
            with_data: false,
            ..
        }
    ));
    assert_eq!(c.state_of(L), L1State::I);

    let mut c = l1_in(L1State::I);
    let r = c.handle(CoherenceMsg::Dwg { line: L }).unwrap();
    assert!(matches!(
        r.out[0].msg,
        CoherenceMsg::DwgAck {
            with_data: false,
            ..
        }
    ));
    assert_eq!(c.state_of(L), L1State::I);

    // Data/ExcAck in I: error cells.
    assert!(l1_in(L1State::I)
        .handle(CoherenceMsg::Data {
            grant: Grant::Shared,
            line: L
        })
        .is_err());
    assert!(l1_in(L1State::I)
        .handle(CoherenceMsg::ExcAck { line: L })
        .is_err());
}

#[test]
fn l1_row_s() {
    // S: Read → do read/S ; Write → Req(Upg)/S.MA ; Repl → evict/I ;
    // Inv → InvAck/I ; Dwg → error.
    let mut c = l1_in(L1State::S);
    assert!(c.read(L).hit);
    assert_eq!(c.state_of(L), L1State::S);

    let mut c = l1_in(L1State::S);
    let a = c.write(L);
    assert!(matches!(
        a.out[0].msg,
        CoherenceMsg::Req {
            kind: ReqType::Upg,
            ..
        }
    ));
    assert_eq!(c.state_of(L), L1State::SMA);

    let mut c = l1_in(L1State::S);
    assert!(c.evict(L).is_empty(), "silent eviction");
    assert_eq!(c.state_of(L), L1State::I);

    let mut c = l1_in(L1State::S);
    let r = c.handle(CoherenceMsg::Inv { line: L }).unwrap();
    assert!(matches!(
        r.out[0].msg,
        CoherenceMsg::InvAck {
            with_data: false,
            ..
        }
    ));
    assert_eq!(c.state_of(L), L1State::I);

    assert!(l1_in(L1State::S)
        .handle(CoherenceMsg::Dwg { line: L })
        .is_err());
}

#[test]
fn l1_row_e() {
    // E: Read → E ; Write → do write/M (silent) ; Repl → evict/I ;
    // Inv → InvAck/I ; Dwg → DwgAck/S.
    let mut c = l1_in(L1State::E);
    assert!(c.read(L).hit);
    assert_eq!(c.state_of(L), L1State::E);

    let mut c = l1_in(L1State::E);
    let a = c.write(L);
    assert!(a.hit && a.out.is_empty(), "silent E→M");
    assert_eq!(c.state_of(L), L1State::M);

    let mut c = l1_in(L1State::E);
    assert!(c.evict(L).is_empty());
    assert_eq!(c.state_of(L), L1State::I);

    let mut c = l1_in(L1State::E);
    let r = c.handle(CoherenceMsg::Inv { line: L }).unwrap();
    assert!(matches!(
        r.out[0].msg,
        CoherenceMsg::InvAck {
            with_data: false,
            ..
        }
    ));

    let mut c = l1_in(L1State::E);
    let r = c.handle(CoherenceMsg::Dwg { line: L }).unwrap();
    assert!(matches!(
        r.out[0].msg,
        CoherenceMsg::DwgAck {
            with_data: false,
            ..
        }
    ));
    assert_eq!(c.state_of(L), L1State::S);
}

#[test]
fn l1_row_m() {
    // M: hits; Repl → evict (writeback)/I ; Inv → InvAck(D)/I ;
    // Dwg → DwgAck(D)/S.
    let mut c = l1_in(L1State::M);
    assert!(c.read(L).hit && c.write(L).hit);

    let mut c = l1_in(L1State::M);
    let out = c.evict(L);
    assert!(matches!(out[0].msg, CoherenceMsg::WriteBack { .. }));
    assert_eq!(c.state_of(L), L1State::I);

    let mut c = l1_in(L1State::M);
    let r = c.handle(CoherenceMsg::Inv { line: L }).unwrap();
    assert!(matches!(
        r.out[0].msg,
        CoherenceMsg::InvAck {
            with_data: true,
            ..
        }
    ));
    assert_eq!(c.state_of(L), L1State::I);

    let mut c = l1_in(L1State::M);
    let r = c.handle(CoherenceMsg::Dwg { line: L }).unwrap();
    assert!(matches!(
        r.out[0].msg,
        CoherenceMsg::DwgAck {
            with_data: true,
            ..
        }
    ));
    assert_eq!(c.state_of(L), L1State::S);
}

#[test]
fn l1_row_isd() {
    // I.SD: Read/Write/Repl → z ; Data → save & read/S or E ;
    // Inv → InvAck/I.SD ; Dwg → DwgAck/I.SD ; Retry → Req(Sh).
    let mut c = l1_in(L1State::ISD);
    assert!(c.read(L).stalled && c.write(L).stalled, "z cells");

    let mut c = l1_in(L1State::ISD);
    let r = c
        .handle(CoherenceMsg::Data {
            grant: Grant::Shared,
            line: L,
        })
        .unwrap();
    assert_eq!(r.completed, Some(L));
    assert_eq!(c.state_of(L), L1State::S);

    let mut c = l1_in(L1State::ISD);
    c.handle(CoherenceMsg::Data {
        grant: Grant::Exclusive,
        line: L,
    })
    .unwrap();
    assert_eq!(c.state_of(L), L1State::E, "or E");

    let mut c = l1_in(L1State::ISD);
    let r = c.handle(CoherenceMsg::Inv { line: L }).unwrap();
    assert!(matches!(r.out[0].msg, CoherenceMsg::InvAck { .. }));
    assert_eq!(c.state_of(L), L1State::ISD, "stays I.SD");

    let mut c = l1_in(L1State::ISD);
    let r = c.handle(CoherenceMsg::Dwg { line: L }).unwrap();
    assert!(matches!(r.out[0].msg, CoherenceMsg::DwgAck { .. }));
    assert_eq!(c.state_of(L), L1State::ISD);

    let mut c = l1_in(L1State::ISD);
    let r = c.handle(CoherenceMsg::Retry { line: L }).unwrap();
    assert!(matches!(
        r.out[0].msg,
        CoherenceMsg::Req {
            kind: ReqType::Sh,
            ..
        }
    ));
}

#[test]
fn l1_row_imd() {
    // I.MD: z on processor ops ; Data → save & write/M ;
    // Inv → InvAck/I.MD ; Dwg → DwgAck/I.MD ; Retry → Req(Ex).
    let mut c = l1_in(L1State::IMD);
    assert!(c.read(L).stalled && c.write(L).stalled);

    let mut c = l1_in(L1State::IMD);
    let r = c
        .handle(CoherenceMsg::Data {
            grant: Grant::Modified,
            line: L,
        })
        .unwrap();
    assert_eq!(r.completed, Some(L));
    assert_eq!(c.state_of(L), L1State::M);

    let mut c = l1_in(L1State::IMD);
    c.handle(CoherenceMsg::Inv { line: L }).unwrap();
    assert_eq!(c.state_of(L), L1State::IMD);

    let mut c = l1_in(L1State::IMD);
    c.handle(CoherenceMsg::Dwg { line: L }).unwrap();
    assert_eq!(c.state_of(L), L1State::IMD);

    let mut c = l1_in(L1State::IMD);
    let r = c.handle(CoherenceMsg::Retry { line: L }).unwrap();
    assert!(matches!(
        r.out[0].msg,
        CoherenceMsg::Req {
            kind: ReqType::Ex,
            ..
        }
    ));
}

#[test]
fn l1_row_sma() {
    // S.MA: z on processor ops ; Data → error ; ExcAck → do write/M ;
    // Inv → InvAck/I.MD ; Dwg → error ; Retry → Req(Upg).
    let mut c = l1_in(L1State::SMA);
    assert!(c.read(L).stalled && c.write(L).stalled);

    assert!(l1_in(L1State::SMA)
        .handle(CoherenceMsg::Data {
            grant: Grant::Modified,
            line: L
        })
        .is_err());

    let mut c = l1_in(L1State::SMA);
    let r = c.handle(CoherenceMsg::ExcAck { line: L }).unwrap();
    assert_eq!(r.completed, Some(L));
    assert_eq!(c.state_of(L), L1State::M);

    let mut c = l1_in(L1State::SMA);
    let r = c.handle(CoherenceMsg::Inv { line: L }).unwrap();
    assert!(matches!(
        r.out[0].msg,
        CoherenceMsg::InvAck {
            with_data: false,
            ..
        }
    ));
    assert_eq!(c.state_of(L), L1State::IMD, "the upgrade race");

    assert!(l1_in(L1State::SMA)
        .handle(CoherenceMsg::Dwg { line: L })
        .is_err());

    let mut c = l1_in(L1State::SMA);
    let r = c.handle(CoherenceMsg::Retry { line: L }).unwrap();
    assert!(matches!(
        r.out[0].msg,
        CoherenceMsg::Req {
            kind: ReqType::Upg,
            ..
        }
    ));
}

// -------------------------------------------------------------- Directory

fn dir_in(state: DirState) -> Directory {
    let mut d = Directory::new(0, MEM, 1024);
    let req = |k| CoherenceMsg::Req { kind: k, line: L };
    match state {
        DirState::DI => {}
        DirState::DIDSD => {
            d.handle(1, req(ReqType::Sh)).unwrap();
        }
        DirState::DIDMD => {
            d.handle(1, req(ReqType::Ex)).unwrap();
        }
        DirState::DM => {
            d.handle(1, req(ReqType::Ex)).unwrap();
            d.handle(MEM, CoherenceMsg::MemAck { line: L }).unwrap();
        }
        DirState::DV => {
            d.handle(1, req(ReqType::Ex)).unwrap();
            d.handle(MEM, CoherenceMsg::MemAck { line: L }).unwrap();
            d.handle(1, CoherenceMsg::WriteBack { line: L }).unwrap();
        }
        DirState::DS => {
            d.handle(1, req(ReqType::Ex)).unwrap();
            d.handle(MEM, CoherenceMsg::MemAck { line: L }).unwrap();
            d.handle(2, req(ReqType::Sh)).unwrap();
            d.handle(
                1,
                CoherenceMsg::DwgAck {
                    line: L,
                    with_data: true,
                },
            )
            .unwrap();
        }
        DirState::DMDSD => {
            let mut base = dir_in(DirState::DM);
            base.handle(2, req(ReqType::Sh)).unwrap();
            assert_eq!(base.state_of(L), DirState::DMDSD);
            return base;
        }
        DirState::DMDMD => {
            let mut base = dir_in(DirState::DM);
            base.handle(2, req(ReqType::Ex)).unwrap();
            assert_eq!(base.state_of(L), DirState::DMDMD);
            return base;
        }
        DirState::DMDSA => {
            let mut base = dir_in(DirState::DMDSD);
            base.handle(1, CoherenceMsg::WriteBack { line: L }).unwrap();
            assert_eq!(base.state_of(L), DirState::DMDSA);
            return base;
        }
        DirState::DMDMA => {
            let mut base = dir_in(DirState::DMDMD);
            base.handle(1, CoherenceMsg::WriteBack { line: L }).unwrap();
            assert_eq!(base.state_of(L), DirState::DMDMA);
            return base;
        }
        DirState::DSDMDA => {
            let mut base = dir_in(DirState::DS);
            base.handle(4, req(ReqType::Ex)).unwrap();
            assert_eq!(base.state_of(L), DirState::DSDMDA);
            return base;
        }
        DirState::DSDMA => {
            let mut base = dir_in(DirState::DS);
            base.handle(2, req(ReqType::Upg)).unwrap();
            assert_eq!(base.state_of(L), DirState::DSDMA);
            return base;
        }
        DirState::DSDIA | DirState::DMDID => {
            unreachable!("capacity-eviction states are set up in their tests")
        }
    }
    assert_eq!(d.state_of(L), state, "setup failed");
    d
}

#[test]
fn dir_row_di() {
    // DI: Req(Sh) → Req(Mem)/DI.DSD ; Req(Ex)/Req(Upg) → Req(Mem)/DI.DMD ;
    // WriteBack/InvAck/DwgAck/MemAck → error.
    let mut d = dir_in(DirState::DI);
    let out = d
        .handle(
            1,
            CoherenceMsg::Req {
                kind: ReqType::Sh,
                line: L,
            },
        )
        .unwrap();
    assert!(matches!(
        out[0].msg,
        CoherenceMsg::MemReq { write: false, .. }
    ));
    assert_eq!(d.state_of(L), DirState::DIDSD);

    for kind in [ReqType::Ex, ReqType::Upg] {
        let mut d = dir_in(DirState::DI);
        d.handle(1, CoherenceMsg::Req { kind, line: L }).unwrap();
        assert_eq!(
            d.state_of(L),
            DirState::DIDMD,
            "{kind:?} reinterprets to Ex"
        );
    }

    assert!(dir_in(DirState::DI)
        .handle(1, CoherenceMsg::WriteBack { line: L })
        .is_err());
    assert!(dir_in(DirState::DI)
        .handle(
            1,
            CoherenceMsg::InvAck {
                line: L,
                with_data: false
            }
        )
        .is_err());
    assert!(dir_in(DirState::DI)
        .handle(
            1,
            CoherenceMsg::DwgAck {
                line: L,
                with_data: false
            }
        )
        .is_err());
    assert!(dir_in(DirState::DI)
        .handle(MEM, CoherenceMsg::MemAck { line: L })
        .is_err());
}

#[test]
fn dir_row_dv() {
    // DV: Req(Sh) → Data(E)/DM ; Req(Ex) → Data(M)/DM.
    let mut d = dir_in(DirState::DV);
    let out = d
        .handle(
            7,
            CoherenceMsg::Req {
                kind: ReqType::Sh,
                line: L,
            },
        )
        .unwrap();
    assert!(matches!(
        out[0].msg,
        CoherenceMsg::Data {
            grant: Grant::Exclusive,
            ..
        }
    ));
    assert_eq!(d.state_of(L), DirState::DM);
    assert_eq!(d.owner_of(L), Some(7));

    let mut d = dir_in(DirState::DV);
    let out = d
        .handle(
            7,
            CoherenceMsg::Req {
                kind: ReqType::Ex,
                line: L,
            },
        )
        .unwrap();
    assert!(matches!(
        out[0].msg,
        CoherenceMsg::Data {
            grant: Grant::Modified,
            ..
        }
    ));

    assert!(dir_in(DirState::DV)
        .handle(1, CoherenceMsg::WriteBack { line: L })
        .is_err());
    assert!(dir_in(DirState::DV)
        .handle(MEM, CoherenceMsg::MemAck { line: L })
        .is_err());
}

#[test]
fn dir_row_ds() {
    // DS: Req(Sh) → Data(S)/DS ; Req(Ex) → Inv/DS.DMᴰᴬ ;
    // Req(Upg from sharer) → Inv/DS.DMᴬ.
    let mut d = dir_in(DirState::DS);
    let out = d
        .handle(
            5,
            CoherenceMsg::Req {
                kind: ReqType::Sh,
                line: L,
            },
        )
        .unwrap();
    assert!(matches!(
        out[0].msg,
        CoherenceMsg::Data {
            grant: Grant::Shared,
            ..
        }
    ));
    assert_eq!(d.state_of(L), DirState::DS);
    assert!(d.sharers_of(L).contains(&5));

    let mut d = dir_in(DirState::DS);
    let out = d
        .handle(
            9,
            CoherenceMsg::Req {
                kind: ReqType::Ex,
                line: L,
            },
        )
        .unwrap();
    assert!(out
        .iter()
        .all(|m| matches!(m.msg, CoherenceMsg::Inv { .. })));
    assert_eq!(out.len(), 2, "both sharers invalidated");
    assert_eq!(d.state_of(L), DirState::DSDMDA);

    let mut d = dir_in(DirState::DS);
    let out = d
        .handle(
            2,
            CoherenceMsg::Req {
                kind: ReqType::Upg,
                line: L,
            },
        )
        .unwrap();
    assert_eq!(out.len(), 1, "only the other sharer invalidated");
    assert_eq!(d.state_of(L), DirState::DSDMA);
}

#[test]
fn dir_row_dm() {
    // DM: Req(Sh) → Dwg/DM.DSᴰ ; Req(Ex) → Inv/DM.DMᴰ ; WriteBack → save/DV.
    let mut d = dir_in(DirState::DM);
    let out = d
        .handle(
            2,
            CoherenceMsg::Req {
                kind: ReqType::Sh,
                line: L,
            },
        )
        .unwrap();
    assert_eq!(out[0].to, 1, "downgrade goes to the owner");
    assert!(matches!(out[0].msg, CoherenceMsg::Dwg { .. }));
    assert_eq!(d.state_of(L), DirState::DMDSD);

    let mut d = dir_in(DirState::DM);
    let out = d
        .handle(
            2,
            CoherenceMsg::Req {
                kind: ReqType::Ex,
                line: L,
            },
        )
        .unwrap();
    assert!(matches!(out[0].msg, CoherenceMsg::Inv { .. }));
    assert_eq!(d.state_of(L), DirState::DMDMD);

    let mut d = dir_in(DirState::DM);
    assert!(d
        .handle(1, CoherenceMsg::WriteBack { line: L })
        .unwrap()
        .is_empty());
    assert_eq!(d.state_of(L), DirState::DV);
}

#[test]
fn dir_rows_didsd_didmd() {
    // DI.DSᴰ / DI.DMᴰ: Req* → z ; MemAck → repl & fwd/DM.
    let mut d = dir_in(DirState::DIDSD);
    let out = d
        .handle(
            5,
            CoherenceMsg::Req {
                kind: ReqType::Sh,
                line: L,
            },
        )
        .unwrap();
    assert!(out.is_empty(), "z: deferred");
    let out = d.handle(MEM, CoherenceMsg::MemAck { line: L }).unwrap();
    assert!(matches!(
        out[0].msg,
        CoherenceMsg::Data {
            grant: Grant::Exclusive,
            ..
        }
    ));
    // The deferred Req(Sh) then replays against DM (downgrade).
    assert!(out
        .iter()
        .any(|m| matches!(m.msg, CoherenceMsg::Dwg { .. })));

    let mut d = dir_in(DirState::DIDMD);
    let out = d.handle(MEM, CoherenceMsg::MemAck { line: L }).unwrap();
    assert!(matches!(
        out[0].msg,
        CoherenceMsg::Data {
            grant: Grant::Modified,
            ..
        }
    ));
    assert_eq!(d.state_of(L), DirState::DM);

    assert!(dir_in(DirState::DIDSD)
        .handle(1, CoherenceMsg::WriteBack { line: L })
        .is_err());
}

#[test]
fn dir_rows_dsdmda_dsdma() {
    // DS.DMᴰᴬ: last InvAck → Data(M)/DM. DS.DMᴬ: last InvAck → ExcAck/DM.
    let mut d = dir_in(DirState::DSDMDA);
    assert!(d
        .handle(
            1,
            CoherenceMsg::InvAck {
                line: L,
                with_data: false
            }
        )
        .unwrap()
        .is_empty());
    let out = d
        .handle(
            2,
            CoherenceMsg::InvAck {
                line: L,
                with_data: false,
            },
        )
        .unwrap();
    assert!(matches!(
        out[0].msg,
        CoherenceMsg::Data {
            grant: Grant::Modified,
            ..
        }
    ));
    assert_eq!(d.state_of(L), DirState::DM);
    assert_eq!(d.owner_of(L), Some(4));

    let mut d = dir_in(DirState::DSDMA);
    let out = d
        .handle(
            1,
            CoherenceMsg::InvAck {
                line: L,
                with_data: false,
            },
        )
        .unwrap();
    assert!(matches!(out[0].msg, CoherenceMsg::ExcAck { .. }));
    assert_eq!(d.owner_of(L), Some(2));

    // MemAck in these states: error.
    assert!(dir_in(DirState::DSDMDA)
        .handle(MEM, CoherenceMsg::MemAck { line: L })
        .is_err());
}

#[test]
fn dir_rows_dmdsd_dmdsa() {
    // DM.DSᴰ: DwgAck → save & fwd (Data(S), both share) ;
    // WriteBack → save/DM.DSᴬ, then DwgAck → Data(E)/DM.
    let mut d = dir_in(DirState::DMDSD);
    let out = d
        .handle(
            1,
            CoherenceMsg::DwgAck {
                line: L,
                with_data: true,
            },
        )
        .unwrap();
    assert!(matches!(
        out[0].msg,
        CoherenceMsg::Data {
            grant: Grant::Shared,
            ..
        }
    ));
    assert_eq!(d.state_of(L), DirState::DS);
    let mut sharers = d.sharers_of(L);
    sharers.sort_unstable();
    assert_eq!(sharers, vec![1, 2]);

    let mut d = dir_in(DirState::DMDSA);
    let out = d
        .handle(
            1,
            CoherenceMsg::DwgAck {
                line: L,
                with_data: false,
            },
        )
        .unwrap();
    assert!(matches!(
        out[0].msg,
        CoherenceMsg::Data {
            grant: Grant::Exclusive,
            ..
        }
    ));
    assert_eq!(d.state_of(L), DirState::DM);
    assert_eq!(d.owner_of(L), Some(2));

    // InvAck in DM.DSᴰ: error.
    assert!(dir_in(DirState::DMDSD)
        .handle(
            1,
            CoherenceMsg::InvAck {
                line: L,
                with_data: false
            }
        )
        .is_err());
}

#[test]
fn dir_rows_dmdmd_dmdma() {
    // DM.DMᴰ: InvAck → save & fwd/DM ; WriteBack → save/DM.DMᴬ, then
    // InvAck → Data(M)/DM.
    let mut d = dir_in(DirState::DMDMD);
    let out = d
        .handle(
            1,
            CoherenceMsg::InvAck {
                line: L,
                with_data: true,
            },
        )
        .unwrap();
    assert!(matches!(
        out[0].msg,
        CoherenceMsg::Data {
            grant: Grant::Modified,
            ..
        }
    ));
    assert_eq!(d.owner_of(L), Some(2));

    let mut d = dir_in(DirState::DMDMA);
    let out = d
        .handle(
            1,
            CoherenceMsg::InvAck {
                line: L,
                with_data: false,
            },
        )
        .unwrap();
    assert!(matches!(
        out[0].msg,
        CoherenceMsg::Data {
            grant: Grant::Modified,
            ..
        }
    ));
    assert_eq!(d.state_of(L), DirState::DM);

    // DwgAck in DM.DMᴰ: error.
    assert!(dir_in(DirState::DMDMD)
        .handle(
            1,
            CoherenceMsg::DwgAck {
                line: L,
                with_data: false
            }
        )
        .is_err());
}

#[test]
fn dir_rows_repl_eviction_paths() {
    // Repl on DS → Inv/DS.DIᴬ → last InvAck → evict/DI.
    // Repl on DM → Inv/DM.DIᴰ → InvAck(D) → save & evict/DI,
    //   or WriteBack (crossing) → save/DS.DIᴬ.
    // Driven via capacity pressure on a 4-line slice.
    let mut d = Directory::new(0, MEM, 4);
    let lines: Vec<LineAddr> = (0..5u64).map(|i| LineAddr(0x1000 + i * 32)).collect();
    for &line in &lines {
        d.handle(
            1,
            CoherenceMsg::Req {
                kind: ReqType::Ex,
                line,
            },
        )
        .unwrap();
        d.handle(MEM, CoherenceMsg::MemAck { line }).unwrap();
    }
    let victim = lines[0];
    assert_eq!(d.state_of(victim), DirState::DMDID, "DM Repl → DM.DIᴰ");
    // Crossing writeback: DM.DIᴰ + WriteBack → save/DS.DIᴬ.
    d.handle(1, CoherenceMsg::WriteBack { line: victim })
        .unwrap();
    assert_eq!(d.state_of(victim), DirState::DSDIA);
    // The ex-owner's InvAck completes the eviction.
    let out = d
        .handle(
            1,
            CoherenceMsg::InvAck {
                line: victim,
                with_data: false,
            },
        )
        .unwrap();
    assert!(matches!(
        out[0].msg,
        CoherenceMsg::MemReq { write: true, .. }
    ));
    assert_eq!(d.state_of(victim), DirState::DI);
}

#[test]
fn dir_deferred_upg_reinterprets_as_ex() {
    // The "(Req(Ex))" annotation: a deferred Upg whose requester is no
    // longer a sharer replays as Ex.
    let mut d = dir_in(DirState::DSDMDA); // node 4 taking exclusive from {1,2}
                                          // Node 2 (being invalidated) has an Upg in flight: deferred.
    assert!(d
        .handle(
            2,
            CoherenceMsg::Req {
                kind: ReqType::Upg,
                line: L
            }
        )
        .unwrap()
        .is_empty());
    // Acks complete node 4's transfer; node 2's stale Upg replays as a
    // full exclusive request: an Inv goes to the new owner 4.
    d.handle(
        1,
        CoherenceMsg::InvAck {
            line: L,
            with_data: false,
        },
    )
    .unwrap();
    let out = d
        .handle(
            2,
            CoherenceMsg::InvAck {
                line: L,
                with_data: false,
            },
        )
        .unwrap();
    assert!(out.iter().any(|m| matches!(
        m.msg,
        CoherenceMsg::Data {
            grant: Grant::Modified,
            ..
        }
    )));
    assert!(
        out.iter()
            .any(|m| m.to == 4 && matches!(m.msg, CoherenceMsg::Inv { .. })),
        "stale Upg reinterpreted as Ex: {out:?}"
    );
    assert_eq!(d.state_of(L), DirState::DMDMD);
}

// ---------------------------------------------------- regression: SMA pin

/// Permanent named regression (L1 half of the recorded shrink
/// `[[Read(1, 8)], [Read(2, 8)], [Write(1, 8), Evict(1, 8)]]`): a
/// replacement arriving while the S→M upgrade is pending in S.Mᴬ must not
/// evict the line — the MSHR pins it — and the upgrade must still
/// complete when the ExcAck lands.
#[test]
fn l1_sma_pins_line_against_eviction() {
    let mut c = l1_in(L1State::SMA);
    let out = c.evict(L);
    assert!(
        out.is_empty(),
        "eviction under a pending upgrade is a no-op"
    );
    assert_eq!(c.state_of(L), L1State::SMA, "the MSHR pins the line");
    assert_eq!(c.outstanding(), 1);

    let r = c.handle(CoherenceMsg::ExcAck { line: L }).unwrap();
    assert_eq!(r.completed, Some(L), "upgrade still completes");
    assert_eq!(c.state_of(L), L1State::M);
    assert_eq!(c.outstanding(), 0);
}

/// And the race half: if the eviction attempt is followed by the
/// directory's Inv (our upgrade lost), the line drops to I.Mᴰ and the
/// reinterpreted exclusive grant must fill it back to M.
#[test]
fn l1_sma_evict_then_inv_falls_back_to_imd() {
    let mut c = l1_in(L1State::SMA);
    assert!(c.evict(L).is_empty());
    let r = c.handle(CoherenceMsg::Inv { line: L }).unwrap();
    assert!(matches!(
        r.out[0].msg,
        CoherenceMsg::InvAck {
            with_data: false,
            ..
        }
    ));
    assert_eq!(c.state_of(L), L1State::IMD, "the upgrade race");

    let r = c
        .handle(CoherenceMsg::Data {
            grant: Grant::Modified,
            line: L,
        })
        .unwrap();
    assert_eq!(r.completed, Some(L));
    assert_eq!(c.state_of(L), L1State::M);
    assert_eq!(c.outstanding(), 0);
}

// ------------------------------------------- doc-adjacent property tests

/// Doc-adjacent property: under any sequence of legal stimuli — processor
/// reads/writes/evictions, home-node invalidations, and immediate
/// responses to every request (with the Inv sometimes racing ahead of the
/// response, as in the S.Mᴬ → I.Mᴰ row) — the L1 never takes an error
/// transition, never strands an MSHR, and always settles in a stable
/// Table 2 state.
#[test]
fn l1_never_errors_under_legal_stimuli() {
    checker!().check(
        "l1_never_errors_under_legal_stimuli",
        vec_of((0u8..4, 0u64..12, 0u8..4), 1..80),
        |ops| {
            let mut c = l1();
            for &(kind, l, flags) in ops {
                let line = LineAddr(l * 32);
                let (race_inv, exclusive) = (flags & 1 != 0, flags & 2 != 0);
                let req = match kind {
                    0 => c.read(line).out,
                    1 => c.write(line).out,
                    2 => {
                        c.evict(line);
                        Vec::new()
                    }
                    _ => {
                        // A home-node Inv is legal in every Table 2 row.
                        c.handle(CoherenceMsg::Inv { line }).unwrap();
                        Vec::new()
                    }
                };
                // Answer the request the L1 just emitted, optionally
                // letting an Inv race in front of the response.
                if let Some(CoherenceMsg::Req {
                    kind: req_kind,
                    line,
                }) = req.first().map(|o| o.msg)
                {
                    if race_inv {
                        c.handle(CoherenceMsg::Inv { line }).unwrap();
                    }
                    let response = match req_kind {
                        ReqType::Sh => CoherenceMsg::Data {
                            grant: if exclusive {
                                Grant::Exclusive
                            } else {
                                Grant::Shared
                            },
                            line,
                        },
                        ReqType::Ex => CoherenceMsg::Data {
                            grant: Grant::Modified,
                            line,
                        },
                        ReqType::Upg => {
                            if race_inv {
                                // The directory reinterpreted the stale
                                // Upg as Ex and answers with data.
                                CoherenceMsg::Data {
                                    grant: Grant::Modified,
                                    line,
                                }
                            } else {
                                CoherenceMsg::ExcAck { line }
                            }
                        }
                    };
                    let r = c.handle(response).unwrap();
                    assert_eq!(r.completed, Some(line), "request completes");
                }
                assert_eq!(c.outstanding(), 0, "no MSHR survives a completed request");
                for probe in 0..12u64 {
                    let s = c.state_of(LineAddr(probe * 32));
                    assert!(
                        matches!(s, L1State::I | L1State::S | L1State::E | L1State::M),
                        "line {probe} stuck in transient {s:?}"
                    );
                }
            }
        },
    );
}

/// A directory slice of `capacity` lines serving perfectly-behaved L1s
/// (nodes 1..=3: immediate acks, Table 2-conformant replies) over `lines`.
/// `ops` are `(node, action, line)` picks, applied `batch` at a time (at
/// most one per node) before the wire drains, so with `batch > 1` requests
/// meet lines another node's request or an eviction left transient. Panics
/// unless the directory never takes an error transition and always
/// quiesces in base states that agree with the L1s' actual states, within
/// its capacity.
fn drive_legal_stream(ops: &[(u8, u8, u8)], lines: &[LineAddr], capacity: usize, batch: usize) {
    let mut d = Directory::new(0, MEM, capacity);
    // states[node][line-index]; nodes 1..=3 are the fake L1s.
    let mut states = vec![[L1State::I; 4]; lines.len()];
    let mut wire: std::collections::VecDeque<(usize, CoherenceMsg)> =
        std::collections::VecDeque::new();
    for chunk in ops.chunks(batch) {
        let mut acted = [false; 4];
        for &(n, kind, li) in chunk {
            let node = 1 + (n as usize % 3);
            if std::mem::replace(&mut acted[node], true) {
                continue;
            }
            let li = li as usize % lines.len();
            let line = lines[li];
            match (states[li][node], kind) {
                (L1State::I, 0) => wire.push_back((
                    node,
                    CoherenceMsg::Req {
                        kind: ReqType::Sh,
                        line,
                    },
                )),
                (L1State::I, 1) => wire.push_back((
                    node,
                    CoherenceMsg::Req {
                        kind: ReqType::Ex,
                        line,
                    },
                )),
                (L1State::S, 1) => wire.push_back((
                    node,
                    CoherenceMsg::Req {
                        kind: ReqType::Upg,
                        line,
                    },
                )),
                (L1State::S, 2) | (L1State::E, 2) => states[li][node] = L1State::I,
                (L1State::E, 1) => states[li][node] = L1State::M,
                (L1State::M, 2) => {
                    states[li][node] = L1State::I;
                    wire.push_back((node, CoherenceMsg::WriteBack { line }));
                }
                _ => {} // hits and no-ops
            }
        }
        while let Some((from, msg)) = wire.pop_front() {
            let outs = d
                .handle(from, msg)
                .unwrap_or_else(|e| panic!("directory error: {e}"));
            for o in outs {
                let line = o.msg.line();
                let Some(li) = lines.iter().position(|&l| l == line) else {
                    continue;
                };
                if o.to == MEM {
                    if let CoherenceMsg::MemReq { write: false, .. } = o.msg {
                        wire.push_back((MEM, CoherenceMsg::MemAck { line }));
                    }
                    continue;
                }
                let st = &mut states[li][o.to];
                match o.msg {
                    CoherenceMsg::Inv { .. } => {
                        let dirty = *st == L1State::M;
                        *st = L1State::I;
                        wire.push_back((
                            o.to,
                            CoherenceMsg::InvAck {
                                line,
                                with_data: dirty,
                            },
                        ));
                    }
                    CoherenceMsg::Dwg { .. } => {
                        let dirty = *st == L1State::M;
                        if matches!(*st, L1State::E | L1State::M) {
                            *st = L1State::S;
                        }
                        wire.push_back((
                            o.to,
                            CoherenceMsg::DwgAck {
                                line,
                                with_data: dirty,
                            },
                        ));
                    }
                    CoherenceMsg::Data { grant, .. } => {
                        *st = match grant {
                            Grant::Shared => L1State::S,
                            Grant::Exclusive => L1State::E,
                            Grant::Modified => L1State::M,
                        };
                    }
                    CoherenceMsg::ExcAck { .. } => *st = L1State::M,
                    CoherenceMsg::Retry { .. } => {} // request dropped
                    _ => {}
                }
            }
        }
        assert!(
            d.tracked() <= capacity,
            "{} lines tracked with nothing in flight",
            d.tracked()
        );
        for (li, &line) in lines.iter().enumerate() {
            let ds = d.state_of(line);
            assert!(
                matches!(
                    ds,
                    DirState::DI | DirState::DV | DirState::DM | DirState::DS
                ),
                "{line}: directory not quiescent: {ds:?}"
            );
            for (node, l1) in states[li].iter().enumerate().skip(1) {
                match l1 {
                    L1State::E | L1State::M => {
                        assert_eq!(ds, DirState::DM, "{line}: writable outside DM");
                        assert_eq!(d.owner_of(line), Some(node));
                    }
                    L1State::S => {
                        assert_eq!(ds, DirState::DS, "{line}: S outside DS");
                        assert!(d.sharers_of(line).contains(&node));
                    }
                    _ => {}
                }
            }
        }
    }
}

/// Doc-adjacent property: a directory slice serving perfectly-behaved L1s
/// never takes an error transition and always quiesces in a base state
/// that agrees with the L1s' actual states.
#[test]
fn directory_never_errors_under_legal_streams() {
    checker!().check(
        "directory_never_errors_under_legal_streams",
        vec_of((0u8..3, 0u8..4, 0u8..2), 1..60),
        |ops| drive_legal_stream(ops, &[LineAddr(0x400), LineAddr(0x800)], 1024, 1),
    );
}

/// The same streams squeezed through a four-line slice, three ops at a
/// time over twelve lines: capacity evictions of shared and owned lines,
/// requests deferred behind them, DI placeholders and their replays (a
/// placeholder in about one case of five, hence the larger case count). In a
/// debug build every eviction also checks the directory's LRU list against
/// the full-scan victim choice it replaced.
#[test]
fn directory_never_errors_under_eviction_pressure() {
    let lines: Vec<LineAddr> = (0..12).map(|i| LineAddr(0x400 * (i + 1))).collect();
    checker!().cases(256).check(
        "directory_never_errors_under_eviction_pressure",
        vec_of((0u8..3, 0u8..4, 0u8..12), 1..120),
        |ops| drive_legal_stream(ops, &lines, 4, 3),
    );
}
