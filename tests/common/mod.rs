//! The reference-evaluation wrapper shared by the fast-path tests.
//!
//! Every primitive with a word-level `eval` keeps its per-thread
//! evaluation as a `#[doc(hidden)]` `eval_reference`. [`Reference`] runs a
//! primitive with it, for any token type, so a test can run the same
//! circuit with the fast and with the reference evaluations and compare
//! what they observe.

#![allow(dead_code)]

use std::any::Any;

use mt_elastic::core::{Barrier, Branch, FifoMeb, Fork, Merge, ReducedMeb};
use mt_elastic::sim::{
    Circuit, CombPath, Component, EvalCtx, FusedOpKind, NetlistNodeKind, NextEvent, Ports, Sink,
    SlotView, Source, TickCtx, Token, Transform, VarLatency,
};

/// A primitive with a per-thread reference evaluation.
pub trait HasReference<T: Token>: Component<T> + 'static {
    fn eval_reference(&mut self, ctx: &mut EvalCtx<'_, T>);
}

macro_rules! has_reference {
    ($($unit:ident),* $(,)?) => {$(
        impl<T: Token> HasReference<T> for $unit<T> {
            fn eval_reference(&mut self, ctx: &mut EvalCtx<'_, T>) {
                $unit::eval_reference(self, ctx);
            }
        }
    )*};
}

has_reference!(
    ReducedMeb, FifoMeb, Source, Sink, Fork, VarLatency, Barrier, Branch, Merge, Transform,
);

/// Calls `C::eval_reference` on a type-erased primitive.
fn reference_eval<T: Token, C: HasReference<T>>(unit: &mut dyn Any, ctx: &mut EvalCtx<'_, T>) {
    unit.downcast_mut::<C>()
        .expect("the wrapped primitive has the wrapper's type")
        .eval_reference(ctx);
}

/// Runs the wrapped primitive with its reference `eval`. Every other
/// method, the typed-access upcasts included, delegates to the primitive,
/// so `Circuit::get` still finds it.
pub struct Reference<T: Token> {
    unit: Box<dyn Component<T>>,
    eval: fn(&mut dyn Any, &mut EvalCtx<'_, T>),
}

impl<T: Token> Reference<T> {
    /// Wraps `unit`, a `C`.
    pub fn new<C: HasReference<T>>(unit: Box<dyn Component<T>>) -> Self {
        Self {
            unit,
            eval: reference_eval::<T, C>,
        }
    }
}

impl<T: Token> Component<T> for Reference<T> {
    fn name(&self) -> &str {
        self.unit.name()
    }
    fn ports(&self) -> Ports {
        self.unit.ports()
    }
    fn comb_paths(&self) -> Vec<CombPath> {
        self.unit.comb_paths()
    }
    fn eval(&mut self, ctx: &mut EvalCtx<'_, T>) {
        (self.eval)(self.unit.as_any_mut(), ctx);
    }
    fn tick(&mut self, ctx: &TickCtx<'_, T>) {
        self.unit.tick(ctx);
    }
    fn reset(&mut self) -> bool {
        self.unit.reset()
    }
    fn slots(&self) -> Vec<SlotView> {
        self.unit.slots()
    }
    fn next_event(&self, now: u64) -> NextEvent {
        self.unit.next_event(now)
    }
    fn netlist_kind(&self) -> NetlistNodeKind {
        self.unit.netlist_kind()
    }
    fn op_kind(&self) -> FusedOpKind {
        self.unit.op_kind()
    }
    fn as_any(&self) -> &dyn Any {
        self.unit.as_any()
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.unit.as_any_mut()
    }
}

/// Which `eval` the primitives with a fast path run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Model {
    Fast,
    Reference,
}

/// `c`, boxed to run the `model` evaluation.
pub fn boxed<T: Token, C: HasReference<T>>(c: C, model: Model) -> Box<dyn Component<T>> {
    match model {
        Model::Fast => Box::new(c),
        Model::Reference => Box::new(Reference::new::<C>(Box::new(c))),
    }
}

/// Wraps the built circuit's `C` named `name` so it runs its reference
/// `eval`.
pub fn wrap<T: Token, C: HasReference<T>>(c: &mut Circuit<T>, name: &str) {
    let wrapped = c.wrap_component(name, |unit| Box::new(Reference::new::<C>(unit)));
    assert!(wrapped, "the circuit has a component named `{name}`");
}
