//! The evaluation-hook wrapper shared by the fast-path and kernel tests,
//! and the random topology their properties run ([`random_net`]).
//!
//! Every primitive with a word-level `eval` keeps its per-thread
//! evaluation as a `#[doc(hidden)]` `eval_reference`.
//! [`Hooked::reference`] runs a primitive with it, for any token type, so
//! a test can run the same circuit with the fast and with the reference
//! evaluations and compare what they observe. [`Hooked::new`] runs any
//! other hook around a primitive's `eval`, such as a recorder.

#![allow(dead_code)]

pub mod random_net;

use std::any::Any;

use mt_elastic::core::{Barrier, Branch, FifoMeb, Fork, Merge, ReducedMeb};
use mt_elastic::sim::{
    Circuit, CombPath, Component, EvalCtx, FusedOpKind, NextEvent, Ports, Sink, SlotView, Source,
    TickCtx, Token, Transform, VarLatency,
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

/// How a [`Hooked`] primitive is evaluated, given the primitive.
type EvalHook<T> = Box<dyn FnMut(&mut dyn Component<T>, &mut EvalCtx<'_, T>) + Send>;

/// Runs the wrapped primitive's `eval` through a hook. Every other method,
/// the typed-access upcasts included, delegates to the primitive, so
/// `Circuit::get` still finds it.
pub struct Hooked<T: Token> {
    unit: Box<dyn Component<T>>,
    eval: EvalHook<T>,
}

impl<T: Token> Hooked<T> {
    /// Wraps `unit`, evaluated by `eval`.
    pub fn new(
        unit: Box<dyn Component<T>>,
        eval: impl FnMut(&mut dyn Component<T>, &mut EvalCtx<'_, T>) + Send + 'static,
    ) -> Self {
        Self {
            unit,
            eval: Box::new(eval),
        }
    }

    /// Wraps `unit`, a `C`, to run its reference `eval`.
    pub fn reference<C: HasReference<T>>(unit: Box<dyn Component<T>>) -> Self {
        Self::new(unit, |unit, ctx| {
            unit.as_any_mut()
                .downcast_mut::<C>()
                .expect("the wrapped primitive has the wrapper's type")
                .eval_reference(ctx);
        })
    }
}

impl<T: Token> Component<T> for Hooked<T> {
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
        (self.eval)(self.unit.as_mut(), ctx);
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
        Model::Reference => Box::new(Hooked::reference::<C>(Box::new(c))),
    }
}

/// Wraps the built circuit's `C` named `name` so it runs its reference
/// `eval`.
pub fn wrap<T: Token, C: HasReference<T>>(c: &mut Circuit<T>, name: &str) {
    let wrapped = c.wrap_component(name, |unit| Box::new(Hooked::reference::<C>(unit)));
    assert!(wrapped, "the circuit has a component named `{name}`");
}
