// Fixture: an EngineEvent enum with a variant the codec tests never
// exercise. `TickIngested` is covered by the real codec.rs test module;
// `PhantomEvent` is not.

pub enum EngineEvent {
    TickIngested {
        context: ContextId,
        tick: u64,
    },
    PhantomEvent {
        context: ContextId,
    },
}
